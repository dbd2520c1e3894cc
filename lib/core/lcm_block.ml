module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Edge_split = Lcm_cfg.Edge_split

type analysis = {
  graph : Cfg.t;
  entry_inserts : (Label.t * Bitvec.t) list;
  exit_inserts : (Label.t * Bitvec.t) list;
  deletes : (Label.t * Bitvec.t) list;
  copies : (Label.t * Bitvec.t) list;
  edges_pre_split : int;
}

let analyze ?scratch g0 =
  let pre_split = List.length (List.filter (Cfg.is_critical_edge g0) (Cfg.edges g0)) in
  (* Splitting may grow the graph past the admission-time shape class; the
     arena's size buckets absorb that (the first such request warms larger
     buckets, later ones reuse them). *)
  let g = Edge_split.split_critical_edges g0 in
  let a = Lcm_edge.analyze ?scratch g in
  (* Lower each edge insertion to a block placement.  With critical edges
     gone, one of the two positions is always available. *)
  let entry_tbl = Hashtbl.create 16 and exit_tbl = Hashtbl.create 16 in
  let add tbl l set =
    match Hashtbl.find_opt tbl l with
    | Some existing -> ignore (Bitvec.union_into ~into:existing set)
    | None -> Hashtbl.replace tbl l (Arena.alloc_copy scratch set)
  in
  List.iter
    (fun ((p, b), set) ->
      if List.length (Cfg.predecessors g b) = 1 then add entry_tbl b set
      else begin
        assert (List.length (Cfg.successors g p) = 1);
        add exit_tbl p set
      end)
    a.Lcm_edge.insert;
  let to_list tbl =
    List.filter_map (fun l -> Option.map (fun s -> (l, s)) (Hashtbl.find_opt tbl l)) (Cfg.labels g)
  in
  {
    graph = g;
    entry_inserts = to_list entry_tbl;
    exit_inserts = to_list exit_tbl;
    deletes = a.Lcm_edge.delete;
    copies = a.Lcm_edge.copy;
    edges_pre_split = pre_split;
  }

let spec a =
  let pool = Cfg.candidate_pool a.graph in
  {
    Transform.algorithm = "lcm-block";
    pool;
    temp_names = Temps.names a.graph pool;
    rank = [||];
    edge_inserts = [];
    entry_inserts = a.entry_inserts;
    exit_inserts = a.exit_inserts;
    deletes = a.deletes;
    copies = a.copies;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify a.graph (spec a)

(* The report deliberately carries no spec: the decision refers to the
   pre-split graph, so a placement check against the pass input would be
   checking the wrong graph. *)
let pass =
  Pass.v "lcm-block" (fun ctx g ->
      let a = Lcm_obs.Trace.span "lcm.split" (fun () -> analyze ?scratch:ctx.Pass.scratch g) in
      let g', _rep = Transform.apply a.graph (spec a) in
      (g', Pass.report ~notes:[ ("edges_pre_split", string_of_int a.edges_pre_split) ] ()))
