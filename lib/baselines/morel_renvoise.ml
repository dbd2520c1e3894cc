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
  ppin : Label.t -> Bitvec.t;
  ppout : Label.t -> Bitvec.t;
  insert : (Label.t * Bitvec.t) list;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
}

let analyze ?pool g =
  let pool = match pool with Some p -> p | None -> Cfg.candidate_pool g in
  let local = Local.compute g pool in
  let n = Expr_pool.size pool in
  let avail = Avail.compute g local in
  let pavail = Avail.compute_partial g local in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  let entry = Cfg.entry g and exit_l = Cfg.exit_label g in
  let ppin = Array.init bound (fun _ -> Bitvec.create_full n) in
  let ppout = Array.init bound (fun _ -> Bitvec.create_full n) in
  ppin.(entry) <- Bitvec.create n;
  ppout.(exit_l) <- Bitvec.create n;
  let scratch = Bitvec.create n and term = Bitvec.create n in
  let sweeps = ref 0 and visits = ref 0 in
  (* The bidirectional PPIN/PPOUT system, worklist-driven.  There is no
     single direction in which one pass suffices, but the dependency
     structure is still local: PPOUT(b) reads PPIN of b's successors, and
     PPIN(b) reads PPOUT of b itself and of its predecessors.  So a visit
     recomputes PPOUT(b) then PPIN(b); a PPOUT change re-enqueues the
     successors (their PPIN reads it) and a PPIN change re-enqueues the
     predecessors (their PPOUT reads it). *)
  let rpo_pos = adj.Cfg.adj_rpo_pos in
  let queue = Queue.create () in
  let in_queue = Array.make bound false in
  let enqueue b =
    if (not in_queue.(b)) && rpo_pos.(b) >= 0 then begin
      in_queue.(b) <- true;
      Queue.add b queue
    end
  in
  Array.iter enqueue adj.Cfg.adj_rpo;
  let visit_count = Array.make bound 0 in
  while not (Queue.is_empty queue) do
    let b = Queue.take queue in
    in_queue.(b) <- false;
    incr visits;
    visit_count.(b) <- visit_count.(b) + 1;
    (* PPOUT(b) = ∩ PPIN(s) over successors; exit stays ∅. *)
    if not (Label.equal b exit_l) then begin
      Bitvec.fill scratch true;
      Array.iter (fun s -> ignore (Bitvec.inter_into ~into:scratch ppin.(s))) adj.Cfg.adj_succ.(b);
      if Bitvec.blit ~src:scratch ~dst:ppout.(b) then Array.iter enqueue adj.Cfg.adj_succ.(b)
    end;
    (* PPIN(b); entry stays ∅. *)
    if not (Label.equal b entry) then begin
      ignore (Bitvec.blit ~src:ppout.(b) ~dst:scratch);
      ignore (Bitvec.inter_into ~into:scratch (Local.transp local b));
      ignore (Bitvec.union_into ~into:scratch (Local.antloc local b));
      ignore (Bitvec.inter_into ~into:scratch (pavail.Avail.avin b));
      Array.iter
        (fun p ->
          ignore (Bitvec.blit ~src:ppout.(p) ~dst:term);
          ignore (Bitvec.union_into ~into:term (avail.Avail.avout p));
          ignore (Bitvec.inter_into ~into:scratch term))
        adj.Cfg.adj_pred.(b);
      if Bitvec.blit ~src:scratch ~dst:ppin.(b) then Array.iter enqueue adj.Cfg.adj_pred.(b)
    end
  done;
  sweeps := Array.fold_left max 0 visit_count;
  let live = Array.make bound false in
  List.iter (fun l -> live.(l) <- true) (Cfg.labels g);
  let lookup arr what l =
    if l >= 0 && l < bound && live.(l) then arr.(l)
    else invalid_arg (Printf.sprintf "Morel_renvoise.%s: unknown label B%d" what l)
  in
  let ppin_f = lookup ppin "ppin" and ppout_f = lookup ppout "ppout" in
  (* INSERT(b) = PPOUT(b) ∩ ¬AVOUT(b) ∩ (¬PPIN(b) ∪ ¬TRANSP(b)) *)
  let insert =
    List.filter_map
      (fun b ->
        let v = Bitvec.copy (ppout_f b) in
        ignore (Bitvec.diff_into ~into:v (avail.Avail.avout b));
        ignore (Bitvec.diff_into ~into:v (Bitvec.inter (ppin_f b) (Local.transp local b)));
        if Bitvec.is_empty v then None else Some (b, v))
      (Cfg.labels g)
  in
  (* DELETE(b) = ANTLOC(b) ∩ PPIN(b) *)
  let delete =
    List.filter_map
      (fun b ->
        let v = Bitvec.inter (Local.antloc local b) (ppin_f b) in
        if Bitvec.is_empty v then None else Some (b, v))
      (Cfg.labels g)
  in
  (* A block-end insertion behaves like inserting on every outgoing edge for
     the purposes of deciding which original computations must seed the
     temporary. *)
  let insert_edges =
    List.concat_map
      (fun (b, set) -> List.map (fun s -> ((b, s), set)) (Cfg.successors g b))
      insert
  in
  let copy = Copy_analysis.copies g local ~insert_edges ~deletes:delete in
  {
    pool;
    local;
    ppin = ppin_f;
    ppout = ppout_f;
    insert;
    delete;
    copy;
    sweeps = !sweeps + avail.Avail.sweeps + pavail.Avail.sweeps;
    visits = !visits + avail.Avail.visits + pavail.Avail.visits;
  }

let spec g a =
  {
    Transform.algorithm = "morel-renvoise";
    pool = a.pool;
    temp_names = Temps.names g a.pool;
    rank = [||];
    edge_inserts = [];
    entry_inserts = [];
    exit_inserts = a.insert;
    deletes = a.delete;
    copies = a.copy;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify g (spec g a)

let pass =
  Lcm_core.Pass.v "morel-renvoise" (fun _ctx g ->
      let a = analyze g in
      let g', rep = Transform.apply g (spec g a) in
      (g', Lcm_core.Pass.report ~sweeps:a.sweeps ~visits:a.visits ~spec:rep.Transform.spec ()))
