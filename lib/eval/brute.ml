module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Order = Lcm_cfg.Order
module Expr_pool = Lcm_ir.Expr_pool
module Local = Lcm_dataflow.Local
module Transform = Lcm_core.Transform
module Copy_analysis = Lcm_core.Copy_analysis
module Temps = Lcm_core.Temps

type candidate = {
  insert_edges : (Label.t * Label.t) list;
  transformed : Cfg.t;
  report : Transform.report;
  safe : bool;
}

(* Availability of the single expression when [h := e] sits on the edges of
   [inserts]; greatest fixed point over booleans. *)
let deletions g local inserts =
  let avin = Hashtbl.create 32 and avout = Hashtbl.create 32 in
  List.iter
    (fun l ->
      Hashtbl.replace avin l true;
      Hashtbl.replace avout l true)
    (Cfg.labels g);
  Hashtbl.replace avin (Cfg.entry g) false;
  let has_insert p b = List.exists (fun (x, y) -> Label.equal x p && Label.equal y b) inserts in
  let order = Order.compute g in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let in_v =
          if Label.equal b (Cfg.entry g) then false
          else
            List.for_all (fun p -> Hashtbl.find avout p || has_insert p b) (Cfg.predecessors g b)
        in
        let out_v = Bitvec.get (Local.comp local b) 0 || (in_v && Bitvec.get (Local.transp local b) 0) in
        if in_v <> Hashtbl.find avin b || out_v <> Hashtbl.find avout b then begin
          Hashtbl.replace avin b in_v;
          Hashtbl.replace avout b out_v;
          changed := true
        end)
      (Order.reverse_postorder order)
  done;
  List.filter
    (fun b -> Bitvec.get (Local.antloc local b) 0 && Hashtbl.find avin b)
    (Cfg.labels g)

let enumerate ?(max_edges = 12) ?(max_decisions = 8) g =
  let pool = Cfg.candidate_pool g in
  if Expr_pool.size pool <> 1 then
    invalid_arg
      (Printf.sprintf "Brute.enumerate: graph has %d candidate expressions, need exactly 1"
         (Expr_pool.size pool));
  let local = Local.compute g pool in
  let edges = Array.of_list (Cfg.edges g) in
  let n = Array.length edges in
  if n > max_edges then
    invalid_arg (Printf.sprintf "Brute.enumerate: %d edges exceed the limit of %d" n max_edges);
  let temp_names = Temps.names g pool in
  let one = Bitvec.of_list 1 [ 0 ] in
  let results = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let insert_edges =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list edges)
    in
    let insert_sets = List.map (fun e -> (e, Bitvec.copy one)) insert_edges in
    let delete_blocks = deletions g local insert_edges in
    let delete_sets = List.map (fun b -> (b, Bitvec.copy one)) delete_blocks in
    let copies = Copy_analysis.copies g local ~insert_edges:insert_sets ~deletes:delete_sets in
    let spec =
      {
        Transform.algorithm = "brute";
        pool;
        temp_names;
        rank = [||];
        edge_inserts = insert_sets;
        entry_inserts = [];
        exit_inserts = [];
        deletes = delete_sets;
        copies;
      }
    in
    let transformed, report = Transform.apply g spec in
    let safe =
      match Oracle.safety ~max_decisions ~pool ~original:g transformed with
      | Ok () -> true
      | Error _ -> false
    in
    results := { insert_edges; transformed; report; safe } :: !results
  done;
  List.rev !results

let path_totals ~pool ~max_decisions ~seqs g =
  List.map
    (fun seq ->
      let r = Trace.replay ~pool g seq in
      ignore max_decisions;
      if r.Trace.completed then Some (Trace.total r.Trace.eval_counts) else None)
    seqs

let check_computational_optimality ?max_edges ?(max_decisions = 8) g ~transformed =
  let pool = Cfg.candidate_pool g in
  let seqs = Trace.enumerate g ~max_decisions in
  let mine = path_totals ~pool ~max_decisions ~seqs transformed in
  let candidates = enumerate ?max_edges ~max_decisions g in
  let rec go = function
    | [] -> Ok ()
    | c :: rest ->
      if not c.safe then go rest
      else begin
        let theirs = path_totals ~pool ~max_decisions ~seqs c.transformed in
        let violation =
          List.exists2
            (fun m t -> match (m, t) with Some m, Some t -> m > t | _, _ -> false)
            mine theirs
        in
        if violation then
          Error
            (Printf.sprintf
               "a safe candidate with insertions on [%s] beats the transformation on some path"
               (String.concat ", "
                  (List.map (fun (a, b) -> Printf.sprintf "B%d->B%d" a b) c.insert_edges)))
        else go rest
      end
  in
  go candidates

let check_lifetime_optimality ?max_edges ?(max_decisions = 8) g ~transformed ~temps =
  let pool = Cfg.candidate_pool g in
  let seqs = Trace.enumerate g ~max_decisions in
  let mine = path_totals ~pool ~max_decisions ~seqs transformed in
  let my_lifetime = Metrics.temp_lifetime transformed ~temps in
  let candidates = enumerate ?max_edges ~max_decisions g in
  let rec go = function
    | [] -> Ok ()
    | c :: rest ->
      let theirs = path_totals ~pool ~max_decisions ~seqs c.transformed in
      let equal_counts = c.safe && List.for_all2 (fun m t -> m = t) mine theirs in
      if not equal_counts then go rest
      else begin
        let their_temps = Metrics.temps_of_report c.report in
        let their_lifetime = Metrics.temp_lifetime c.transformed ~temps:their_temps in
        if their_lifetime < my_lifetime then
          Error
            (Printf.sprintf
               "computationally optimal candidate with insertions on [%s] has lifetime %d < %d"
               (String.concat ", "
                  (List.map (fun (a, b) -> Printf.sprintf "B%d->B%d" a b) c.insert_edges))
               their_lifetime my_lifetime)
        else go rest
      end
  in
  go candidates
