(** Availability (forward) of candidate expressions.

    An expression is *available* at a point when every path from the entry
    computes it after the last modification of its operands — in the paper's
    terms, when the point is *up-safe*.  [compute_partial] is the "may"
    variant (available along some path), needed by the Morel–Renvoise
    baseline. *)

type t = {
  avin : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
  avout : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** [avin] and [avout] copy a block's row out, for consumers off the
          word kernels *)
  avout_rows : Lcm_support.Rowtab.t;  (** the AVOUT rows as a label-indexed table *)
  avin_into : int array -> Lcm_cfg.Label.t -> unit;
      (** writes a block's AVIN row into a word buffer (see
          {!Solver.result}) *)
  sweeps : int;
  visits : int;
}

(** [scratch] backs all solver state (see {!Solver.run}); the result's
    table is then valid only until the arena's next reset.  Omitting it
    keeps the historical allocating behavior. *)
val compute : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Local.t -> t

val compute_partial : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Local.t -> t

(** [compute_keep] is {!compute} that additionally captures the fixpoint
    for incremental restart (heap rows; safe to retain across arena
    resets).  The capture shares [local]'s rows, so [local] must come from
    the heap ({!Local.compute} without [scratch]). *)
val compute_keep :
  ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Local.t -> t * Solver.saved

(** [compute_incr g local ~prev ~dirty] re-solves availability on the
    patched graph [g] from the fixpoint saved before the patch, working
    only on the bits and blocks the patch changed (see
    {!Solver.restart}); also returns the blocks whose AVIN or AVOUT rows
    changed.  [local] must come from the heap, like [compute_keep]'s.
    [None] when [prev] is inadmissible (the pool shrank or outgrew
    [prev]'s row width in words) — fall back to {!compute_keep}.  Bits
    [local] appends within the row width restart from [prev]'s zero
    padding, so the caller must know the all-zero column to be [prev]'s
    fixpoint for them: for expressions no block computed before the
    patch, it is when every block is reachable from the entry. *)
val compute_incr :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  Local.t ->
  prev:Solver.saved ->
  dirty:Lcm_cfg.Label.t list ->
  (t * Solver.saved * Lcm_cfg.Label.t array) option
