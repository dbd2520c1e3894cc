module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Order = Lcm_cfg.Order
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Expr_pool = Lcm_ir.Expr_pool

type analysis = {
  pool : Expr_pool.t;
  local : Local.t;
  avail : Avail.t;
  antic : Antic.t;
  insert : ((Label.t * Label.t) * Bitvec.t) list;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
}

let analyze ?pool ?scratch g =
  let pool = match pool with Some p -> p | None -> Cfg.candidate_pool g in
  let local = Lcm_obs.Trace.span "lcm.local" (fun () -> Local.compute ?scratch g pool) in
  let avail, antic = Lcm_edge.solve_safety_systems ?scratch g local in
  let insert =
    Lcm_obs.Trace.span "lcm.earliest" (fun () -> Lcm_edge.earliest_sets ?scratch g local avail antic)
  in
  (* Under busy placement every upwards-exposed computation of a reachable
     block becomes fully redundant — except in the entry block, which has
     no incoming edges for an insertion to cover it. *)
  let order = Order.compute g in
  let delete =
    List.filter_map
      (fun b ->
        if
          Order.is_reachable order b
          && (not (Label.equal b (Cfg.entry g)))
          && not (Bitvec.is_empty (Local.antloc local b))
        then Some (b, Arena.alloc_copy scratch (Local.antloc local b))
        else None)
      (Cfg.labels g)
  in
  let copy = Copy_analysis.copies ?scratch g local ~insert_edges:insert ~deletes:delete in
  {
    pool;
    local;
    avail;
    antic;
    insert;
    delete;
    copy;
    sweeps = avail.Avail.sweeps + antic.Antic.sweeps;
    visits = avail.Avail.visits + antic.Antic.visits;
  }

let spec g a =
  {
    Transform.algorithm = "bcm-edge";
    pool = a.pool;
    temp_names = Temps.names g a.pool;
    rank = [||];
    edge_inserts = a.insert;
    entry_inserts = [];
    exit_inserts = [];
    deletes = a.delete;
    copies = a.copy;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify g (spec g a)

let pass =
  Pass.v "bcm-edge" (fun ctx g ->
      let a = analyze ?scratch:ctx.Pass.scratch g in
      let g', rep = Transform.apply g (spec g a) in
      (g', Pass.report ~sweeps:a.sweeps ~visits:a.visits ~spec:rep.Transform.spec ()))
