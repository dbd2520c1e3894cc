(** Block-local predicates over the candidate-expression universe.

    For each basic block [b] and candidate expression [e]:
    - [ANTLOC b e] — [b] contains an *upwards exposed* computation of [e]
      (computed before any operand of [e] is modified in [b]);
    - [COMP b e] — [b] contains a *downwards exposed* computation of [e]
      (computed after the last modification of [e]'s operands in [b]);
    - [TRANSP b e] — [b] is *transparent* for [e] (modifies no operand).

    These are the only facts the global analyses need about block bodies. *)

type t

(** [compute g pool] scans every block once.  With [scratch], every
    predicate vector is checked out of the arena (valid until its next
    reset); without it they are heap-allocated as before. *)
val compute : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Lcm_ir.Expr_pool.t -> t

(** [update ~prev g ~dirty] is [compute g (pool prev)] for a graph that
    differs from [prev]'s only in the bodies of the [dirty] blocks and in
    blocks added since (which [dirty] must list too): only those blocks are
    rescanned.  The result shares every unchanged row, and [prev]'s kill
    masks, with [prev]; changed rows are fresh heap vectors and [prev] is
    not written.  [prev] must come from the heap ({!compute} without
    [scratch]) when it outlives an arena.  The caller checks that [g]'s
    candidate pool still equals [pool prev]. *)
val update : prev:t -> Lcm_cfg.Cfg.t -> dirty:Lcm_cfg.Label.t list -> t

val pool : t -> Lcm_ir.Expr_pool.t

(** Number of bits per vector (= pool size). *)
val nbits : t -> int

(** The returned vectors are owned by [t]; callers must not mutate them. *)
val antloc : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t

val comp : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t
val transp : t -> Lcm_cfg.Label.t -> Lcm_support.Bitvec.t

(** The same predicates as whole label-indexed row arrays, for word
    kernels such as {!Solver}'s GEN/KEEP rows: slot [l] is the predicate of
    block [l] for every block of the graph; other slots are unspecified.
    Owned by [t]; callers must not mutate the arrays or their rows. *)
val antloc_rows : t -> Lcm_support.Bitvec.t array

val comp_rows : t -> Lcm_support.Bitvec.t array
val transp_rows : t -> Lcm_support.Bitvec.t array

(** Render the three predicates for every block, one row per block. *)
val pp : Format.formatter -> t -> unit
