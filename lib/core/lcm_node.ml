module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Granulate = Lcm_cfg.Granulate
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Solver = Lcm_dataflow.Solver
module Expr_pool = Lcm_ir.Expr_pool

type analysis = {
  pool : Expr_pool.t;
  local : Local.t;
  dsafe : Label.t -> Bitvec.t;
  usafe : Label.t -> Bitvec.t;
  earliest : Label.t -> Bitvec.t;
  delay : Label.t -> Bitvec.t;
  latest : Label.t -> Bitvec.t;
  isolated : Label.t -> Bitvec.t;
  sweeps : int;
  visits : int;
}

type variant =
  | Bcm
  | Alcm
  | Lcm

let variant_name = function
  | Bcm -> "bcm-node"
  | Alcm -> "alcm-node"
  | Lcm -> "lcm-node"

(* On a granular graph the paper's Comp(n) — "n computes e, reading entry
   values" — is exactly the upwards-exposed predicate. *)
let comp local l = Local.antloc local l

let table_of g f =
  let tbl = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace tbl l (f l)) (Cfg.labels g);
  fun l ->
    match Hashtbl.find_opt tbl l with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Lcm_node: unknown label B%d" l)

let analyze ?pool g =
  if not (Granulate.is_granular g) then
    invalid_arg "Lcm_node.analyze: graph has blocks with several instructions (granulate first)";
  let pool = match pool with Some p -> p | None -> Cfg.candidate_pool g in
  let local = Local.compute g pool in
  let n = Expr_pool.size pool in
  (* Down-safety is anticipatability and up-safety is availability at node
     entries; both reuse the generic analyses. *)
  let antic = Antic.compute g local in
  let avail = Avail.compute g local in
  let dsafe = antic.Antic.antin in
  let usafe = avail.Avail.avin in
  let entry = Cfg.entry g in
  let earliest =
    table_of g (fun l ->
        let v = Bitvec.copy (dsafe l) in
        if not (Label.equal l entry) then begin
          (* Remove bits for which every predecessor is transparent and safe:
             the insertion could move further up. *)
          let all_preds_safe = Bitvec.create_full n in
          List.iter
            (fun p ->
              let safe = Bitvec.union (dsafe p) (usafe p) in
              ignore (Bitvec.inter_into ~into:safe (Local.transp local p));
              ignore (Bitvec.inter_into ~into:all_preds_safe safe))
            (Cfg.predecessors g l);
          ignore (Bitvec.diff_into ~into:v all_preds_safe)
        end;
        v)
  in
  (* Label-indexed GEN/KEEP rows for the two solves below; slots of labels
     outside the graph are never read. *)
  let rows f =
    let a = Array.make (Cfg.label_bound g) (Bitvec.create n) in
    List.iter (fun l -> a.(l) <- f l) (Cfg.labels g);
    Lcm_support.Rowtab.of_rows n a
  in
  let not_comp = rows (fun l -> Bitvec.complement (comp local l)) in
  (* DELAY: forward, intersection, entry boundary ∅;
     transfer(out of n) = (in ∪ EARLIEST(n)) \ Comp(n),
     i.e. GEN = EARLIEST \ Comp, KEEP = ¬Comp. *)
  let delay_solution =
    Solver.run g
      {
        Solver.nbits = n;
        direction = Solver.Forward;
        confluence = Solver.Inter;
        boundary = Bitvec.create n;
        gen = rows (fun l -> Bitvec.diff (earliest l) (comp local l));
        keep = not_comp;
      }
  in
  let delay =
    table_of g (fun l -> Bitvec.union (delay_solution.Solver.block_in l) (earliest l))
  in
  let latest =
    table_of g (fun l ->
        let succs = Cfg.successors g l in
        let all_succs_delay = Bitvec.create_full n in
        List.iter (fun s -> ignore (Bitvec.inter_into ~into:all_succs_delay (delay s))) succs;
        let stop = Bitvec.union (comp local l) (Bitvec.complement all_succs_delay) in
        Bitvec.inter (delay l) stop)
  in
  (* ISOLATED: backward, intersection, exit boundary full;
     transfer(in of s) = LATEST(s) ∪ (out(s) \ Comp(s)),
     i.e. GEN = LATEST, KEEP = ¬Comp. *)
  let isolated_solution =
    Solver.run g
      {
        Solver.nbits = n;
        direction = Solver.Backward;
        confluence = Solver.Inter;
        boundary = Bitvec.create_full n;
        gen = rows latest;
        keep = not_comp;
      }
  in
  let isolated = table_of g (fun l -> Bitvec.copy (isolated_solution.Solver.block_out l)) in
  {
    pool;
    local;
    dsafe;
    usafe;
    earliest;
    delay;
    latest;
    isolated;
    sweeps =
      antic.Antic.sweeps + avail.Avail.sweeps + delay_solution.Solver.sweeps
      + isolated_solution.Solver.sweeps;
    visits =
      antic.Antic.visits + avail.Avail.visits + delay_solution.Solver.visits
      + isolated_solution.Solver.visits;
  }

let insert_points a variant l =
  match variant with
  | Bcm -> Bitvec.copy (a.earliest l)
  | Alcm -> Bitvec.copy (a.latest l)
  | Lcm -> Bitvec.diff (a.latest l) (a.isolated l)

let spec g a variant =
  let entry_inserts =
    List.filter_map
      (fun l ->
        let v = insert_points a variant l in
        if Bitvec.is_empty v then None else Some (l, v))
      (Cfg.labels g)
  in
  (* Rewrite set: all computations, except — for LCM — the ones whose node
     is LATEST ∧ ISOLATED (they keep their original expression). *)
  let deletes =
    List.filter_map
      (fun l ->
        let v = Bitvec.copy (comp a.local l) in
        (match variant with
        | Lcm -> ignore (Bitvec.diff_into ~into:v (Bitvec.inter (a.latest l) (a.isolated l)))
        | Bcm | Alcm -> ());
        if Bitvec.is_empty v then None else Some (l, v))
      (Cfg.labels g)
  in
  {
    Transform.algorithm = variant_name variant;
    pool = a.pool;
    temp_names = Temps.names g a.pool;
    rank = [||];
    edge_inserts = [];
    entry_inserts;
    exit_inserts = [];
    deletes;
    copies = [];
  }

let transform ?simplify variant g =
  (* The node model needs a landing node on every join edge: a node
     insertion executes once per node visit, so only with landing nodes can
     it express per-edge placement (see Lcm_cfg.Edge_split). *)
  let g = if Granulate.is_granular g then g else Granulate.run g in
  let g = Lcm_cfg.Edge_split.split_join_edges g in
  let a = analyze g in
  Transform.apply ?simplify g (spec g a variant)

(* No spec in the report: the decision refers to the granulated, join-split
   graph, not the pass input. *)
let pass variant =
  Pass.v (variant_name variant) (fun _ctx g ->
      let g', _rep = transform variant g in
      (g', Pass.report ()))
