(** Generic iterative bit-vector data-flow solver.

    Solves one of the four classic problem shapes (forward/backward ×
    union/intersection) for all expressions simultaneously, in the classic
    bit-vector framework: every block's transfer is [out = GEN ∪ (in ∩
    KEEP)], given as two rows of data per block rather than as a function.

    {b Tables.}  Every row the solver reads or writes is a row of a
    label-indexed {!Lcm_support.Rowtab} table of [nbits]-bit rows: the
    spec's GEN and KEEP tables, and the solution's flow table — each
    block's value on the transfer's output side (exit forward, entry
    backward).  The meet side is not stored: it is the meet of the
    neighbors' flow rows, recomputed by whoever reads it ([meet_into]).
    One word-loop kernel visits a block — meet, transfer and change test
    over the row's words — and writes the flow row only when it changes.
    A from-scratch {!run} is that kernel on a fresh table at the
    confluence's start value with every reachable block seeded; a
    {!restart} is the same kernel on a copy-on-write table over a capture,
    seeded with the blocks a patch changed, so it copies only the pages of
    the rows that move.

    The solver iterates with a worklist: blocks are seeded in reverse
    postorder (forward) or postorder (backward), positions read off the
    adjacency snapshot, and afterwards only the direction-appropriate
    neighbors of a block whose transfer output changed are re-visited.
    The property tests check it bit-identical against a reference
    round-robin sweep (the paper's cost model). *)

(** Human-readable name of the iteration engine (recorded in benchmark
    output). *)
val default_engine_name : string

type direction =
  | Forward
  | Backward

type confluence =
  | Union  (** "may" problems; interior initialized to all-zeros *)
  | Inter  (** "must" problems; interior initialized to all-ones *)

type spec = {
  nbits : int;
  direction : direction;
  confluence : confluence;
  boundary : Lcm_support.Bitvec.t;
      (** the entry block's in-value (forward) or the exit block's out-value
          (backward) *)
  gen : Lcm_support.Rowtab.t;
      (** GEN rows by label: block [l]'s transfer is
          [out = gen.(l) ∪ (in ∩ keep.(l))], where [in] is the meet-side
          value (block entry forward, block exit backward) and [out] the
          other side.  A row for every label below [Cfg.label_bound];
          rows of labels that are no block are never read. *)
  keep : Lcm_support.Rowtab.t;
      (** KEEP rows, the complement of the classic KILL set, by label like
          [gen].  Both tables are read, never written, and must stay
          unchanged while a solve runs. *)
}

type result = {
  block_in : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** a copy of the value at block entry (meet result for forward
          problems), for consumers off the word kernels *)
  block_out : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** a copy of the value at block exit (meet result for backward
          problems) *)
  flow : Lcm_support.Rowtab.t;
      (** the transfer side by label: block exits forward, entries
          backward *)
  meet_into : int array -> Lcm_cfg.Label.t -> unit;
      (** [meet_into buf l] writes the meet side of block [l] (entry
          forward, exit backward) into the first words of [buf]: the
          boundary value at the boundary block, the start value at an
          unreachable block or one without meet inputs, else the meet of
          the neighbors' flow rows *)
  sweeps : int;
      (** the maximum number of times any single block was visited — the
          iteration depth, the worklist analogue of a round-robin sweep
          count *)
  visits : int;  (** total transfer-function applications *)
  changed : Lcm_cfg.Label.t array;
      (** after a {!restart}, the blocks whose entry or exit value
          changed, ascending (new blocks included); empty after a {!run} *)
}

(** Raises [Invalid_argument] when the GEN or KEEP table lacks a row for
    a label of the graph or its rows are not [nbits] wide.

    When [scratch] is given, every piece of solver state — the flow table
    (the result's), the word buffers and the worklist — is checked out of
    that arena; the result is then only valid until the arena's
    next [reset].  Without it the tables come from the heap and the
    worklist from an arena checked out for the solve
    ({!Lcm_support.Pool.Scratch.with_arena}). *)
val run : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result

(** A fixpoint captured for later incremental restart: the spec (its
    GEN/KEEP tables shared, not copied), the adjacency snapshot it was
    solved on and the solution's flow table, all on the heap, so a
    [saved] may be retained across requests.  Nothing in a [saved] is ever
    written after it is built: the caller must not write the GEN/KEEP
    tables either ({!Local.update} makes new ones copy-on-write). *)
type saved

(** [run_saved g spec] is [run g spec] that additionally captures the
    fixpoint for {!restart}.  The flow table comes from the heap even when
    [scratch] is given ([scratch] backs the worklist only). *)
val run_saved :
  ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result * saved

(** [restart g spec ~prev ~dirty] re-solves [spec] on the patched graph
    [g] from the fixpoint [prev] saved before the patch, doing work only
    for the bits and blocks the patch changed.  [spec.gen]/[spec.keep] are
    the patched graph's tables, [dirty] every block whose GEN/KEEP rows or
    meet inputs the patch changed ({!Lcm_cfg.Patch.apply}'s seed: for a
    terminator edit the block plus its old and new successors).

    Each bit is an independent system, so a body edit diffs the dirty
    blocks' new GEN/KEEP rows against the saved ones; bits that can move
    back toward the iteration's start (for ∩: GEN or KEEP gained) are
    lifted to it, and the lift propagates only through blocks whose value
    is not at the start for that bit and whose transfer passes it.  The
    worklist kernel then runs seeded with the lifted blocks, their
    dependents and the changed blocks.  A shape edit (the adjacency
    snapshot differs from the saved one) lifts every bit of the dirty
    blocks, resets blocks that became unreachable and seeds blocks that
    became reachable or are new.

    Returns the result — bit-identical to a from-scratch [run g spec]; the
    property tests and the serving [delta] op's validate mode assert this —
    and a capture for the next restart.  The result's flow table is
    copy-on-write over [prev]'s ({!Lcm_support.Rowtab.cow}): it shares
    every page no changed row lives in, the pages it copied come from the
    heap, and its change list names the flow rows that changed; [changed]
    lists every block whose entry or exit value changed.  [visits] counts
    only the restart's visits.  [prev] is never written, whether the result is kept or
    dropped.  [scratch] backs only the worklist, the bookkeeping and the
    change list.  Returns [None] when [prev] is not admissible for
    [spec] (direction, confluence or boundary differ, or [nbits] shrank
    or outgrew [prev]'s row width in words), in which case the caller
    should fall back to a full solve.  Bits appended within the row width
    restart from [prev]'s clear padding: the caller must know the all-zero
    column to be [prev]'s system's fixpoint for them — for an ∩ problem
    over an expression no block computed, it is when every block reaches
    the boundary block. *)
val restart :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  spec ->
  prev:saved ->
  dirty:Lcm_cfg.Label.t list ->
  (result * saved) option
