module Cfg = Lcm_cfg.Cfg
module Live = Lcm_dataflow.Live
module Bitvec = Lcm_support.Bitvec
module Transform = Lcm_core.Transform

type static_counts = {
  blocks : int;
  instrs : int;
  candidate_occurrences : int;
  copies_and_moves : int;
}

(* Folded from the blocks' memoised counts ([Cfg.counts]). *)
let static_counts g =
  let c = Cfg.counts g in
  {
    blocks = Cfg.num_blocks g;
    instrs = c.Cfg.n_instrs;
    candidate_occurrences = c.Cfg.n_candidates;
    copies_and_moves = c.Cfg.n_copies;
  }

let dynamic_evals ?fuel ~pool ~envs g =
  List.fold_left
    (fun acc env ->
      match acc with
      | None -> None
      | Some total ->
        let o = Interp.run ?fuel ~pool ~env g in
        if o.Interp.terminated then Some (total + Interp.total_evals o) else None)
    (Some 0) envs

let temp_lifetime g ~temps =
  let live = Live.compute g in
  List.fold_left (fun acc t -> acc + Live.live_blocks live g t) 0 temps

let max_pressure g =
  let live = Live.compute g in
  List.fold_left
    (fun acc l -> max acc (max (Bitvec.count (live.Live.livein l)) (Bitvec.count (live.Live.liveout l))))
    0 (Cfg.labels g)

let temps_of_report (r : Transform.report) =
  let used = Hashtbl.create 16 in
  let note_set set =
    Bitvec.iter_true (fun idx -> Hashtbl.replace used r.Transform.spec.Transform.temp_names.(idx) ()) set
  in
  List.iter (fun (_, set) -> note_set set) r.Transform.spec.Transform.edge_inserts;
  List.iter (fun (_, set) -> note_set set) r.Transform.spec.Transform.entry_inserts;
  List.iter (fun (_, set) -> note_set set) r.Transform.spec.Transform.exit_inserts;
  List.iter (fun (_, set) -> note_set set) r.Transform.spec.Transform.copies;
  List.sort String.compare (Hashtbl.fold (fun t () acc -> t :: acc) used [])
