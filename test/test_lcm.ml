(* The edge-based algorithms on hand-analyzed graphs: golden insert/delete/
   copy sets, plus behavioural checks on every named workload. *)

module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Lower = Lcm_cfg.Lower
module Expr = Lcm_ir.Expr
module Lcm_edge = Lcm_core.Lcm_edge
module Bcm_edge = Lcm_core.Bcm_edge
module Suites = Lcm_eval.Suites
module Oracle = Lcm_eval.Oracle
module Registry = Lcm_eval.Registry
module Prng = Lcm_support.Prng

let edge_list insert = List.map fst insert
let block_list delete = List.map fst delete

let find_block g pred = List.find (fun l -> pred (Cfg.instrs g l)) (Cfg.labels g)

let assigns v instrs =
  List.exists (fun i -> Lcm_ir.Instr.defs i = Some v) instrs

(* Diamond: one arm computes a+b, the join recomputes it.  LCM must insert
   exactly on the non-computing arm's outgoing edge, delete the join's
   computation, and seed the temp in the computing arm. *)
let test_diamond_golden () =
  let g = Suites.graph (Option.get (Suites.find "diamond")) in
  let a = Lcm_edge.analyze g in
  let computes_a_plus_b instrs =
    List.exists
      (fun i ->
        match Lcm_ir.Instr.candidate i with
        | Some (Expr.Binary (Expr.Add, Expr.Var "a", Expr.Var "b")) -> true
        | Some _ | None -> false)
      instrs
  in
  let arm_comp = find_block g (fun is -> assigns "x" is && computes_a_plus_b is) in
  let join = find_block g (assigns "y") in
  (* the non-computing arm is the one predecessor of the join that is not
     the computing arm *)
  let other = List.find (fun p -> p <> arm_comp) (Cfg.predecessors g join) in
  Alcotest.(check (list (pair int int))) "insert" [ (other, join) ] (edge_list a.Lcm_edge.insert);
  Alcotest.(check (list int)) "delete" [ join ] (block_list a.Lcm_edge.delete);
  Alcotest.(check (list int)) "copy" [ arm_comp ] (block_list a.Lcm_edge.copy)

(* Straight-line full redundancy: no insertion, deletion at the reuse. *)
let test_straight_line_golden () =
  let g = Lower.parse_and_lower_func "function f(a, b) { x = a + b; y = a + b; return x + y; }" in
  let g, _ = Lcm_opt.Lcse.run g in
  let a = Lcm_edge.analyze g in
  Alcotest.(check (list (pair int int))) "no inserts" [] (edge_list a.Lcm_edge.insert);
  (* After LCSE the second occurrence is already a copy; nothing to delete
     globally in a single block. *)
  Alcotest.(check (list int)) "no deletes" [] (block_list a.Lcm_edge.delete)

(* The while-loop with a use after the loop: the invariant is down-safe at
   the header, so LCM hoists it above the loop entirely. *)
let test_while_loop_with_exit_use () =
  let w = Option.get (Suites.find "loop_with_exit_use") in
  let g = Suites.graph w in
  let a = Lcm_edge.analyze g in
  Alcotest.(check int) "exactly one insertion point" 1 (List.length a.Lcm_edge.insert);
  Alcotest.(check int) "both occurrences deleted" 2 (List.length a.Lcm_edge.delete);
  (* Dynamic gain: evaluations drop from n+1 to 1 per run. *)
  let pool = Cfg.candidate_pool g in
  let g', _ = Lcm_edge.transform g in
  let n = 6 in
  let env = [ ("a", 2); ("b", 3); ("n", n) ] in
  let orig = Lcm_eval.Interp.run ~pool ~env g in
  let opt = Lcm_eval.Interp.run ~pool ~env g' in
  Alcotest.(check bool) "same result" true (Lcm_eval.Interp.same_behaviour orig opt);
  (* a*b evaluated n+1 times originally; once afterwards. *)
  let mul_idx =
    Option.get (Lcm_ir.Expr_pool.index pool (Expr.Binary (Expr.Mul, Expr.Var "a", Expr.Var "b")))
  in
  Alcotest.(check int) "original evals" (n + 1) orig.Lcm_eval.Interp.eval_counts.(mul_idx);
  Alcotest.(check int) "optimized evals" 1 opt.Lcm_eval.Interp.eval_counts.(mul_idx)

(* A plain while-loop invariant is NOT down-safe at the pre-header (the
   loop may run zero times), so classic PRE must leave one evaluation per
   iteration — motion happens only to the loop-entry edge, gaining
   nothing.  This is the known while-vs-repeat contrast from the paper. *)
let test_while_loop_invariant_not_hoisted () =
  let w = Option.get (Suites.find "loop_invariant") in
  let g = Suites.graph w in
  let pool = Cfg.candidate_pool g in
  let g', _ = Lcm_edge.transform g in
  let env = [ ("a", 2); ("b", 3); ("n", 5) ] in
  let mul_idx =
    Option.get (Lcm_ir.Expr_pool.index pool (Expr.Binary (Expr.Mul, Expr.Var "a", Expr.Var "b")))
  in
  let orig = Lcm_eval.Interp.run ~pool ~env g in
  let opt = Lcm_eval.Interp.run ~pool ~env g' in
  Alcotest.(check int) "still one eval per iteration" orig.Lcm_eval.Interp.eval_counts.(mul_idx)
    opt.Lcm_eval.Interp.eval_counts.(mul_idx)

(* In a do-while loop the body executes at least once, so the invariant IS
   down-safe before the loop and LCM hoists it. *)
let test_do_while_invariant_hoisted () =
  let w = Option.get (Suites.find "do_while_invariant") in
  let g = Suites.graph w in
  let pool = Cfg.candidate_pool g in
  let g', _ = Lcm_edge.transform g in
  let env = [ ("a", 2); ("b", 3); ("n", 5) ] in
  let mul_idx =
    Option.get (Lcm_ir.Expr_pool.index pool (Expr.Binary (Expr.Mul, Expr.Var "a", Expr.Var "b")))
  in
  let orig = Lcm_eval.Interp.run ~pool ~env g in
  let opt = Lcm_eval.Interp.run ~pool ~env g' in
  Alcotest.(check bool) "same behaviour" true (Lcm_eval.Interp.same_behaviour orig opt);
  Alcotest.(check int) "original: n evals" 5 orig.Lcm_eval.Interp.eval_counts.(mul_idx);
  Alcotest.(check int) "hoisted: 1 eval" 1 opt.Lcm_eval.Interp.eval_counts.(mul_idx)

(* Guarded invariant: LCM must NOT touch it (insertion would be unsafe). *)
let test_guarded_invariant_untouched () =
  let w = Option.get (Suites.find "guarded_invariant") in
  let g = Suites.graph w in
  let a = Lcm_edge.analyze g in
  Alcotest.(check (list (pair int int))) "no inserts" [] (edge_list a.Lcm_edge.insert);
  Alcotest.(check (list int)) "no deletes" [] (block_list a.Lcm_edge.delete)

(* BCM and LCM are both computationally optimal: equal per-path counts. *)
let test_bcm_lcm_equal_counts () =
  List.iter
    (fun w ->
      let g = Suites.graph w in
      let pool = Cfg.candidate_pool g in
      let bcm, _ = Bcm_edge.transform g in
      let lcm, _ = Lcm_edge.transform g in
      (match Oracle.computations_leq ~pool lcm bcm with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: lcm > bcm: %s" w.Suites.name m);
      match Oracle.computations_leq ~pool bcm lcm with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: bcm > lcm: %s" w.Suites.name m)
    Suites.all

(* Every workload: LCM-edge preserves semantics, is safe, reads no
   undefined temps. *)
let test_all_workloads_lcm_edge () =
  List.iter
    (fun w ->
      let g = Suites.graph w in
      let pool = Cfg.candidate_pool g in
      let g', _ = Lcm_edge.transform g in
      (match Oracle.semantics ~inputs:w.Suites.inputs (Prng.of_int 11) ~original:g ~transformed:g' with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: semantics: %s" w.Suites.name m);
      (match Oracle.safety ~pool ~original:g g' with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: safety: %s" w.Suites.name m);
      match Oracle.no_undefined_temp_reads ~inputs:w.Suites.inputs ~original:g g' with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: temp reads: %s" w.Suites.name m)
    Suites.all

(* LCM never loses to GCSE or the original on any path. *)
let test_lcm_dominates_weaker () =
  List.iter
    (fun w ->
      let g = Suites.graph w in
      let pool = Cfg.candidate_pool g in
      let lcm, _ = Lcm_edge.transform g in
      let gcse = (Option.get (Registry.find "gcse")).Registry.run g in
      (match Oracle.computations_leq ~pool lcm g with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: lcm vs original: %s" w.Suites.name m);
      match Oracle.computations_leq ~pool lcm gcse with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: lcm vs gcse: %s" w.Suites.name m)
    Suites.all

(* The block-placement realization (TOPLAS form): identical per-path
   counts, no transformation-time edge splitting. *)
let test_block_realization () =
  List.iter
    (fun w ->
      let g = Suites.graph w in
      let pool = Cfg.candidate_pool g in
      let edge, _ = Lcm_edge.transform g in
      let block, report = Lcm_core.Lcm_block.transform g in
      Alcotest.(check int)
        (w.Suites.name ^ ": no edge insertions")
        0 report.Lcm_core.Transform.num_edge_insertions;
      (match Oracle.computations_leq ~pool block edge with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: block > edge: %s" w.Suites.name m);
      (match Oracle.computations_leq ~pool edge block with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: edge > block: %s" w.Suites.name m);
      match Oracle.semantics ~inputs:w.Suites.inputs (Prng.of_int 61) ~original:g ~transformed:block with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: semantics: %s" w.Suites.name m)
    Suites.all;
  (* On the critical-edge example the pre-split block realization still
     finds the optimal placement. *)
  let g = Lcm_figures.Critical_edge.graph () in
  let a = Lcm_core.Lcm_block.analyze g in
  Alcotest.(check int) "one edge pre-split" 1 a.Lcm_core.Lcm_block.edges_pre_split;
  Alcotest.(check bool) "some placement found" true
    (a.Lcm_core.Lcm_block.entry_inserts <> [] || a.Lcm_core.Lcm_block.exit_inserts <> [])

(* ---- the fused cascade against plain set algebra ----

   EARLIEST, LATER, LATERIN, INSERT, DELETE, the copy sets and BCM's
   insertions (the non-empty EARLIEST sets) are word loops over rows in
   [Lcm_edge] and [Copy_analysis].  Here each is
   recomputed from its equation with one [Bitvec] call per set operation,
   over AVAIL/ANTIC solved by the closure-based reference engine, with
   round-robin sweeps for the two fixpoints, and compared for every edge
   and every block — on the heap path and on the arena path. *)

module Local = Lcm_dataflow.Local
module Label = Lcm_cfg.Label
module Order = Lcm_cfg.Order
module Solver = Lcm_dataflow.Solver
module Arena = Lcm_support.Arena
module Reference = Test_solver.Reference

type cascade = {
  r_earliest : Label.t * Label.t -> Bitvec.t;
  r_later : Label.t * Label.t -> Bitvec.t;
  r_laterin : Label.t -> Bitvec.t;
  r_insert : ((Label.t * Label.t) * Bitvec.t) list;
  r_delete : (Label.t * Bitvec.t) list;
  r_copy : (Label.t * Bitvec.t) list;
}

let rec until_stable f = if f () then until_stable f

let reference_cascade g =
  let local = Local.compute g (Cfg.candidate_pool g) in
  let n = Local.nbits local in
  let labels = Cfg.labels g and edges = Cfg.edges g and entry = Cfg.entry g in
  let reach = Order.reverse_postorder (Order.compute g) in
  let rows f =
    Array.init (Cfg.label_bound g) (fun l -> if Cfg.mem g l then f local l else Bitvec.create n)
  in
  let solve direction gen =
    Reference.run ~engine:Reference.Sweep g
      (Reference.of_rows ~nbits:n ~direction ~confluence:Solver.Inter ~boundary:(Bitvec.create n)
         ~gen:(rows gen) ~keep:(rows Local.transp))
  in
  let avail = solve Solver.Forward Local.comp and antic = solve Solver.Backward Local.antloc in
  let table keys f =
    let t = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace t k (f k)) keys;
    Hashtbl.find t
  in
  let earliest =
    table edges (fun (p, b) ->
        let v = Bitvec.diff (antic.Reference.block_in b) (avail.Reference.block_out p) in
        if Label.equal p entry then v
        else Bitvec.diff v (Bitvec.inter (Local.transp local p) (antic.Reference.block_out p)))
  in
  let laterin = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace laterin l (Bitvec.create_full n)) labels;
  Hashtbl.replace laterin entry (Bitvec.create n);
  let later (p, b) =
    Bitvec.union (earliest (p, b)) (Bitvec.diff (Hashtbl.find laterin p) (Local.antloc local p))
  in
  until_stable (fun () ->
      List.fold_left
        (fun changed b ->
          if Label.equal b entry then changed
          else begin
            let v = Bitvec.create_full n in
            List.iter (fun p -> ignore (Bitvec.inter_into ~into:v (later (p, b)))) (Cfg.predecessors g b);
            Bitvec.blit ~src:v ~dst:(Hashtbl.find laterin b) || changed
          end)
        false reach);
  let laterin = Hashtbl.find laterin in
  let nonempty l = List.filter (fun (_, v) -> not (Bitvec.is_empty v)) l in
  let insert = nonempty (List.map (fun e -> (e, Bitvec.diff (later e) (laterin (snd e)))) edges) in
  let delete =
    nonempty
      (List.filter_map
         (fun b -> if Label.equal b entry then None else Some (b, Bitvec.diff (Local.antloc local b) (laterin b)))
         labels)
  in
  let find_or_empty l k = Option.value (List.assoc_opt k l) ~default:(Bitvec.create n) in
  let livein = table labels (fun _ -> Bitvec.create n) and liveout = table labels (fun _ -> Bitvec.create n) in
  until_stable (fun () ->
      List.fold_left
        (fun changed b ->
          let out = Bitvec.create n in
          List.iter
            (fun s -> ignore (Bitvec.union_into ~into:out (Bitvec.diff (livein s) (find_or_empty insert (b, s)))))
            (Cfg.successors g b);
          ignore (Bitvec.blit ~src:out ~dst:(liveout b));
          let inn = Bitvec.union (find_or_empty delete b) (Bitvec.diff out (Local.comp local b)) in
          Bitvec.blit ~src:inn ~dst:(livein b) || changed)
        false (List.rev reach));
  let copy =
    nonempty
      (List.map
         (fun b ->
           let v = Bitvec.inter (Local.comp local b) (liveout b) in
           (b, Bitvec.diff v (Bitvec.inter (find_or_empty delete b) (Local.transp local b))))
         labels)
  in
  { r_earliest = earliest; r_later = later; r_laterin = laterin; r_insert = insert; r_delete = delete; r_copy = copy }

let same_sets what a b =
  List.length a = List.length b
  && List.for_all2 (fun (k, v) (k', v') -> k = k' && Bitvec.equal v v') a b
  || QCheck2.Test.fail_reportf "%s: set lists differ" what

let check_cascade g =
  let r = reference_cascade g in
  List.for_all
    (fun scratch ->
      let a = Lcm_edge.analyze ?scratch g in
      List.for_all
        (fun e ->
          Bitvec.equal (a.Lcm_edge.earliest e) (r.r_earliest e)
          && Bitvec.equal (a.Lcm_edge.later e) (r.r_later e)
          || QCheck2.Test.fail_reportf "EARLIEST/LATER differ on B%d->B%d" (fst e) (snd e))
        (Cfg.edges g)
      && List.for_all
           (fun l ->
             Bitvec.equal (a.Lcm_edge.laterin l) (r.r_laterin l)
             || QCheck2.Test.fail_reportf "LATERIN differs at B%d" l)
           (Cfg.labels g)
      && same_sets "INSERT" a.Lcm_edge.insert r.r_insert
      && same_sets "DELETE" a.Lcm_edge.delete r.r_delete
      && same_sets "COPY" a.Lcm_edge.copy r.r_copy
      && same_sets "BCM INSERT" (Bcm_edge.analyze ?scratch g).Bcm_edge.insert
           (List.filter_map
              (fun e ->
                let v = r.r_earliest e in
                if Bitvec.is_empty v then None else Some (e, v))
              (Cfg.edges g)))
    [ None; Some (Arena.create ()) ]

let prop_cascade_random =
  QCheck2.Test.make ~name:"fused cascade ≡ set-algebra reference (random CFGs)" ~count:80
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 2718) in
      let num_blocks = Prng.int_in rng 3 40 in
      check_cascade (Lcm_eval.Gencfg.random_cfg ~params:{ Lcm_eval.Gencfg.default_cfg_params with num_blocks } rng))

let test_cascade_corpus () =
  List.iter (fun w -> ignore (check_cascade (Suites.graph w))) Suites.all;
  List.iter (fun (_, g) -> ignore (check_cascade g)) (Test_solver.bril_corpus ())

(* The temp-liveness worklist as it was before it seeded only the
   deleting blocks: every reachable block seeded once in postorder, FIFO
   re-visits of the predecessors of a block whose LIVEIN grew.  Both
   schedules must reach the same least fixpoint, hence the same COPY
   sets, for the same INSERT/DELETE decision. *)
let copies_all_seeded g local ~insert_edges ~deletes =
  let n = Local.nbits local in
  let adj = Cfg.adjacency g in
  let empty = Bitvec.create n in
  let find l k = Option.value (List.assoc_opt k l) ~default:empty in
  let livein = Array.init adj.Cfg.adj_bound (fun _ -> Bitvec.create n) in
  let liveout = Array.init adj.Cfg.adj_bound (fun _ -> Bitvec.create n) in
  let queue = Queue.create () and queued = Array.make adj.Cfg.adj_bound false in
  let enqueue l =
    if adj.Cfg.adj_rpo_pos.(l) >= 0 && not queued.(l) then begin
      queued.(l) <- true;
      Queue.add l queue
    end
  in
  Array.iter enqueue adj.Cfg.adj_post;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    queued.(b) <- false;
    let out = Bitvec.create n in
    Array.iter
      (fun s -> ignore (Bitvec.union_into ~into:out (Bitvec.diff livein.(s) (find insert_edges (b, s)))))
      adj.Cfg.adj_succ.(b);
    ignore (Bitvec.blit ~src:out ~dst:liveout.(b));
    let inn = Bitvec.union (find deletes b) (Bitvec.diff out (Local.comp local b)) in
    if Bitvec.blit ~src:inn ~dst:livein.(b) then Array.iter enqueue adj.Cfg.adj_pred.(b)
  done;
  List.filter_map
    (fun b ->
      let v = Bitvec.inter (Local.comp local b) liveout.(b) in
      let v = Bitvec.diff v (Bitvec.inter (find deletes b) (Local.transp local b)) in
      if Bitvec.is_empty v then None else Some (b, v))
    (Array.to_list adj.Cfg.adj_labels)

let check_copies g =
  let a = Lcm_edge.analyze g in
  let expected =
    copies_all_seeded g a.Lcm_edge.local ~insert_edges:a.Lcm_edge.insert ~deletes:a.Lcm_edge.delete
  in
  List.for_all
    (fun scratch ->
      same_sets "COPY"
        (Lcm_core.Copy_analysis.copies ?scratch g a.Lcm_edge.local ~insert_edges:a.Lcm_edge.insert
           ~deletes:a.Lcm_edge.delete)
        expected)
    [ None; Some (Arena.create ()) ]

let prop_copies_random =
  QCheck2.Test.make ~name:"COPY: deleting-block seeding ≡ all-block seeding (random CFGs)" ~count:100
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 3141) in
      let num_blocks = Prng.int_in rng 3 60 in
      check_copies (Lcm_eval.Gencfg.random_cfg ~params:{ Lcm_eval.Gencfg.default_cfg_params with num_blocks } rng))

let test_copies_corpus () =
  List.iter
    (fun (name, g) -> Alcotest.(check bool) name true (check_copies g))
    (Test_solver.bril_corpus () @ List.map (fun w -> (w.Suites.name, Suites.graph w)) Suites.all)

let suite =
  [
    Alcotest.test_case "diamond golden sets" `Quick test_diamond_golden;
    Alcotest.test_case "block realization = edge realization" `Quick test_block_realization;
    Alcotest.test_case "straight line after LCSE" `Quick test_straight_line_golden;
    Alcotest.test_case "while loop with exit use: hoisted" `Quick test_while_loop_with_exit_use;
    Alcotest.test_case "while loop invariant: not hoisted (safety)" `Quick test_while_loop_invariant_not_hoisted;
    Alcotest.test_case "do-while invariant: hoisted" `Quick test_do_while_invariant_hoisted;
    Alcotest.test_case "guarded invariant: untouched" `Quick test_guarded_invariant_untouched;
    Alcotest.test_case "BCM = LCM on per-path counts" `Quick test_bcm_lcm_equal_counts;
    Alcotest.test_case "all workloads: LCM-edge sound" `Quick test_all_workloads_lcm_edge;
    Alcotest.test_case "LCM dominates GCSE and original" `Quick test_lcm_dominates_weaker;
    QCheck_alcotest.to_alcotest prop_cascade_random;
    Alcotest.test_case "fused cascade ≡ set-algebra reference (suites, Bril corpus)" `Quick
      test_cascade_corpus;
    QCheck_alcotest.to_alcotest prop_copies_random;
    Alcotest.test_case "COPY: deleting-block seeding ≡ all-block seeding (Bril corpus)" `Quick
      test_copies_corpus;
  ]
