module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Expr_pool = Lcm_ir.Expr_pool
module Transform = Lcm_core.Transform
module Copy_analysis = Lcm_core.Copy_analysis
module Temps = Lcm_core.Temps

type analysis = {
  pool : Expr_pool.t;
  local : Local.t;
  avail : Avail.t;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
}

let analyze ?pool g =
  let pool = match pool with Some p -> p | None -> Cfg.candidate_pool g in
  let local = Local.compute g pool in
  let avail = Avail.compute g local in
  let delete =
    List.filter_map
      (fun b ->
        let v = Bitvec.inter (Local.antloc local b) (avail.Avail.avin b) in
        if Bitvec.is_empty v then None else Some (b, v))
      (Cfg.labels g)
  in
  let copy = Copy_analysis.copies g local ~insert_edges:[] ~deletes:delete in
  { pool; local; avail; delete; copy; sweeps = avail.Avail.sweeps; visits = avail.Avail.visits }

let spec g a =
  {
    Transform.algorithm = "gcse";
    pool = a.pool;
    temp_names = Temps.names g a.pool;
    rank = [||];
    edge_inserts = [];
    entry_inserts = [];
    exit_inserts = [];
    deletes = a.delete;
    copies = a.copy;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify g (spec g a)

let pass =
  Lcm_core.Pass.v "gcse" (fun _ctx g ->
      let a = analyze g in
      let g', rep = Transform.apply g (spec g a) in
      (g', Lcm_core.Pass.report ~sweeps:a.sweeps ~visits:a.visits ~spec:rep.Transform.spec ()))
