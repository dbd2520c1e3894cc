(** Busy Code Motion, edge-insertion formulation.

    BCM places computations as early as safety allows: it inserts on every
    EARLIEST edge and deletes every upwards-exposed original computation.
    The paper proves BCM computationally optimal — no safe placement
    executes fewer computations on any path — but maximally eager, so the
    temporaries' live ranges are as long as they can be.  LCM exists to fix
    exactly that; benchmarks EXP-T3/EXP-A1 measure the gap. *)

module Bitvec = Lcm_support.Bitvec
module Label = Lcm_cfg.Label

type analysis = {
  pool : Lcm_ir.Expr_pool.t;
  local : Lcm_dataflow.Local.t;
  avail : Lcm_dataflow.Avail.t;
  antic : Lcm_dataflow.Antic.t;
  insert : ((Label.t * Label.t) * Bitvec.t) list;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
}

(** [scratch] backs the analysis vectors (see {!Lcm_edge.analyze}). *)
val analyze :
  ?pool:Lcm_ir.Expr_pool.t ->
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  analysis

val spec : Lcm_cfg.Cfg.t -> analysis -> Transform.spec

val transform :
  ?simplify:bool ->
  Lcm_cfg.Cfg.t ->
  Lcm_cfg.Cfg.t * Transform.report

(** [analyze] + [apply] under the unified pass API. *)
val pass : Pass.t
