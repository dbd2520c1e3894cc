(** Anticipatability (backward) of candidate expressions.

    An expression is *anticipatable* — the paper's *down-safe* — at a point
    when every path from the point to the exit computes it before any
    operand is modified.  Inserting a computation is safe exactly at
    down-safe points.  [compute_partial] is the "may" variant. *)

type t = {
  antin : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
  antout : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** [antin] and [antout] copy a block's row out, for consumers off the
          word kernels *)
  antin_rows : Lcm_support.Rowtab.t;  (** the ANTIN rows as a label-indexed table *)
  antout_into : int array -> Lcm_cfg.Label.t -> unit;
      (** writes a block's ANTOUT row into a word buffer (see
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
    for incremental restart; backward twin of {!Avail.compute_keep}. *)
val compute_keep :
  ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> Local.t -> t * Solver.saved

(** Backward twin of {!Avail.compute_incr}.  Bits [local] appends within
    the row width restart from [prev]'s zero padding, which is [prev]'s
    fixpoint for expressions no block computed before the patch only when
    every block reaches the exit (an infinite transparent loop
    anticipates every expression); the caller must check that, as
    [Lcm_edge.analyze_incr] does. *)
val compute_incr :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  Local.t ->
  prev:Solver.saved ->
  dirty:Lcm_cfg.Label.t list ->
  (t * Solver.saved * Lcm_cfg.Label.t array) option
