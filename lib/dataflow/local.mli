(** Block-local predicates over the candidate-expression universe.

    For each basic block [b] and candidate expression [e]:
    - [ANTLOC b e] — [b] contains an *upwards exposed* computation of [e]
      (computed before any operand of [e] is modified in [b]);
    - [COMP b e] — [b] contains a *downwards exposed* computation of [e]
      (computed after the last modification of [e]'s operands in [b]);
    - [TRANSP b e] — [b] is *transparent* for [e] (modifies no operand).

    These are the only facts the global analyses need about block bodies.

    Each predicate is one label-indexed {!Lcm_support.Rowtab} table of
    [nbits]-bit rows, the GEN/KEEP rows of the AVAIL and ANTIC systems
    ({!Solver}) and the inputs of the rest of the LCM cascade.  Tables
    built without an arena come from the heap and may be kept across
    requests (an incremental capture keeps them); a table is never written
    after {!compute} or {!update} returns it. *)

type t

(** [compute g pool] scans every block once.  With [scratch], the tables
    and scan buffers are checked out of the arena (valid until its next
    reset); without it they come from the heap. *)
val compute : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Lcm_ir.Expr_pool.t -> t

(** [update ~prev g ~dirty] is [compute g (pool prev)] for a graph that
    differs from [prev]'s only in the bodies of the [dirty] blocks and in
    blocks added since (which [dirty] must list too): only those blocks are
    rescanned.  The tables are copy-on-write over [prev]'s
    ({!Lcm_support.Rowtab.cow}): they share every page no changed row
    lives in, and [prev]'s kill masks, with [prev], copy the others to the
    heap, and never write [prev].  [scratch] backs only the scan buffers
    and the tables' change lists.  [prev] must come from the heap
    ({!compute} without [scratch]) when it outlives an arena.

    With [numbering], an {!Lcm_cfg.Cfg.extend_numbering} of [prev]'s whose
    pool appends expressions within [prev]'s row width, the result is over
    that pool: the appended columns are clear in every ANTLOC and COMP row
    but the dirty blocks', and every block's TRANSP row gains them, cleared
    where the block writes an operand (found from its events).  The
    caller checks that [g]'s candidates are all in the pool; bits of
    expressions no block computes any more stay, empty.  Raises
    [Invalid_argument] when the pool shrank or outgrew the row width. *)
val update :
  ?scratch:Lcm_support.Arena.t ->
  ?numbering:Lcm_cfg.Cfg.numbering ->
  prev:t ->
  Lcm_cfg.Cfg.t ->
  dirty:Lcm_cfg.Label.t list ->
  t

(** Number of bits per vector (= pool size). *)
val nbits : t -> int

(** The numbering the rows were scanned against: its pool is the one the
    rows' bits index. *)
val numbering : t -> Lcm_cfg.Cfg.numbering

(** A copy of block [l]'s row, for consumers off the word kernels. *)
val antloc : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t

val comp : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t
val transp : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t

(** The same predicates as whole label-indexed tables, for word kernels
    such as {!Solver}'s GEN/KEEP rows: row [l] is the predicate of block
    [l] for every block of the graph; other rows are unspecified.  Read
    only. *)
val antloc_rows : t -> Lcm_support.Rowtab.t

val comp_rows : t -> Lcm_support.Rowtab.t
val transp_rows : t -> Lcm_support.Rowtab.t
