module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Rowtab = Lcm_support.Rowtab
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr

type t = {
  vars : Var_pool.t;
  livein : Label.t -> Bitvec.t;
  liveout : Label.t -> Bitvec.t;
  sweeps : int;
  visits : int;
}

let term_uses g l =
  match Cfg.term g l with
  | Cfg.Branch (Expr.Var v, _, _) -> [ v ]
  | Cfg.Branch (Expr.Const _, _, _) | Cfg.Goto _ | Cfg.Halt -> []

(* gen(b): upward-exposed uses; keep(b): everything but the definitions
   (the complement of the classic kill set), into [gen] and [keep]. *)
let gen_keep g vars gen keep l =
  Bitvec.fill gen false;
  Bitvec.fill keep true;
  let idx v = Var_pool.index vars v in
  let set bv v b = Option.iter (fun i -> Bitvec.set bv i b) (idx v) in
  List.iter (fun v -> set gen v true) (term_uses g l);
  List.iter
    (fun i ->
      (match Instr.defs i with
      | Some v ->
        set gen v false;
        set keep v false
      | None -> ());
      List.iter (fun v -> set gen v true) (Instr.uses i))
    (List.rev (Cfg.instrs g l))

let compute ?scratch ?exit_live g =
  Lcm_obs.Trace.span_attrs "solve.live" @@ fun () ->
  let vars = Var_pool.of_cfg g in
  let n = Var_pool.size vars in
  let return_var = Lcm_cfg.Lower.return_var in
  let exit_live =
    match exit_live with
    | Some vs -> vs
    | None -> (match Var_pool.index vars return_var with Some _ -> [ return_var ] | None -> [])
  in
  let boundary = Arena.alloc scratch n in
  List.iter (fun v -> Option.iter (fun i -> Bitvec.set boundary i true) (Var_pool.index vars v)) exit_live;
  (* GEN/KEEP rows as label-indexed tables (labels are dense ints below
     [label_bound]), checked out of the arena like the solver state. *)
  let bound = Cfg.label_bound g and nw = Bitvec.words_for n in
  let gl = Arena.alloc scratch n and kl = Arena.alloc_full scratch n in
  let gen = Rowtab.create scratch ~nw ~count:bound (Bitvec.words gl)
  and keep = Rowtab.create scratch ~nw ~count:bound (Bitvec.words kl) in
  Cfg.iter_labels g (fun l ->
      gen_keep g vars gl kl l;
      ignore (Rowtab.store gen l (Bitvec.words gl));
      ignore (Rowtab.store keep l (Bitvec.words kl)));
  let result =
    Solver.run ?scratch g
      { Solver.nbits = n; direction = Solver.Backward; confluence = Solver.Union; boundary; gen; keep }
  in
  ( {
      vars;
      livein = result.Solver.block_in;
      liveout = result.Solver.block_out;
      sweeps = result.Solver.sweeps;
      visits = result.Solver.visits;
    },
    [
      ("sweeps", string_of_int result.Solver.sweeps);
      ("visits", string_of_int result.Solver.visits);
    ] )

let live_blocks t g v =
  match Var_pool.index t.vars v with
  | None -> 0
  | Some i ->
    List.fold_left
      (fun acc l ->
        acc + (if Bitvec.get (t.livein l) i then 1 else 0) + if Bitvec.get (t.liveout l) i then 1 else 0)
      0 (Cfg.labels g)
