(* Equivalence of the parallel paths with the sequential engines — the
   determinism contract of the multicore engine, as properties:

   - Solver.run_par ≡ Worklist ≡ Sweep, bit for bit, on random CFGs, for
     all four problem shapes (forward/backward × union/inter), with random
     GEN/KEEP rows, random boundaries, and widths straddling word
     boundaries — with the slice threshold forced low so the parallel path
     actually slices — and counter for counter against the former
     closure-based engines of Test_solver.Reference;
   - Lcm_edge/Bcm_edge.analyze ~workers ≡ analyze: identical insert and
     delete decisions;
   - Corpus.process ~workers ≡ sequential process: identical reports,
     including the transformed-graph digests, at several pool widths. *)

module Bitvec = Lcm_support.Bitvec
module Pool = Lcm_support.Pool
module Prng = Lcm_support.Prng
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Solver = Lcm_dataflow.Solver
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Local = Lcm_dataflow.Local
module Lcm_edge = Lcm_core.Lcm_edge
module Bcm_edge = Lcm_core.Bcm_edge
module Gencfg = Lcm_eval.Gencfg
module Corpus = Lcm_eval.Corpus

let seed_gen = QCheck2.Gen.int_bound 1_000_000

(* Shared 4-domain pool for the whole suite (created lazily so a filtered
   run doesn't spawn domains, shut down at exit). *)
let pool =
  let p = lazy (Pool.create 4) in
  at_exit (fun () -> if Lazy.is_val p then Pool.shutdown (Lazy.force p));
  fun () -> Lazy.force p

(* run_par ≡ run ≡ the former closure-based engines, the sliced one
   included: the slices share one full-width state and the GEN/KEEP kernel
   visits their word ranges, so rows and counters must match the
   reference's slice-by-slice solve exactly. *)
let prop_run_par_equals_sequential =
  QCheck2.Test.make ~name:"run_par ≡ Worklist ≡ Sweep (4 shapes, sliced, random boundary)"
    ~count:60 seed_gen (fun seed ->
      let rng = Prng.of_int (seed + 31337) in
      let g = Test_solver.kernel_graph rng in
      (* Straddle one and two word boundaries across cases. *)
      let nbits = Prng.choose_list rng [ 1; 62; 63; 64; 65; 127; 128; 129; 512 ] in
      List.for_all
        (fun shape ->
          let spec = Test_solver.random_spec rng g shape nbits in
          let reference = Test_solver.Reference.of_spec spec in
          (* threshold 1 bit/domain: force real slicing even at 62 bits. *)
          let p = Solver.run_par ~pool:(pool ()) ~threshold:1 g spec in
          let pieces = min (Pool.size (pool ())) nbits in
          let w = Solver.run ~engine:Solver.Worklist g spec in
          let s = Solver.run ~engine:Solver.Sweep g spec in
          let same_rows (a : Solver.result) (b : Solver.result) =
            List.for_all
              (fun l ->
                Bitvec.equal (a.Solver.block_in l) (b.Solver.block_in l)
                && Bitvec.equal (a.Solver.block_out l) (b.Solver.block_out l))
              (Cfg.labels g)
          in
          (Test_solver.same_result g p (Test_solver.Reference.run_sliced g spec ~pieces)
          && Test_solver.same_result g w (Test_solver.Reference.run g reference)
          && Test_solver.same_result g s (Test_solver.Reference.run ~engine:Solver.Sweep g reference)
          && same_rows p w && same_rows p s)
          || QCheck2.Test.fail_reportf "mismatch (nbits=%d)" nbits)
        Test_solver.shapes)

(* The production slice builders (Avail/Antic.compute_par) against their
   sequential twins, on real candidate pools. *)
let prop_safety_systems_par =
  QCheck2.Test.make ~name:"Avail/Antic.compute_par ≡ compute" ~count:60 seed_gen (fun seed ->
      let rng = Prng.of_int (seed + 99991) in
      let num_blocks = Prng.int_in rng 3 40 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      let local = Local.compute g (Cfg.candidate_pool g) in
      let av = Avail.compute g local and av_p = Avail.compute_par ~pool:(pool ()) ~threshold:1 g local in
      let an = Antic.compute g local and an_p = Antic.compute_par ~pool:(pool ()) ~threshold:1 g local in
      List.for_all
        (fun l ->
          Bitvec.equal (av.Avail.avin l) (av_p.Avail.avin l)
          && Bitvec.equal (av.Avail.avout l) (av_p.Avail.avout l)
          && Bitvec.equal (an.Antic.antin l) (an_p.Antic.antin l)
          && Bitvec.equal (an.Antic.antout l) (an_p.Antic.antout l)
          || QCheck2.Test.fail_reportf "safety system mismatch at B%d" l)
        (Cfg.labels g))

let same_decisions name (insert, delete) (insert', delete') =
  let edge_str (p, b) = Printf.sprintf "B%d->B%d" p b in
  List.length insert = List.length insert'
  && List.length delete = List.length delete'
  && List.for_all2
       (fun (e, v) (e', v') -> e = e' && Bitvec.equal v v')
       insert insert'
  && List.for_all2 (fun (b, v) (b', v') -> Label.equal b b' && Bitvec.equal v v') delete delete'
  ||
  QCheck2.Test.fail_reportf "%s: decisions differ (%s vs %s)" name
    (String.concat "," (List.map (fun (e, _) -> edge_str e) insert))
    (String.concat "," (List.map (fun (e, _) -> edge_str e) insert'))

let prop_lcm_workers =
  QCheck2.Test.make ~name:"Lcm_edge/Bcm_edge.analyze ~workers ≡ analyze" ~count:60 seed_gen
    (fun seed ->
      let rng = Prng.of_int (seed + 424243) in
      let num_blocks = Prng.int_in rng 3 30 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      let a = Lcm_edge.analyze g in
      let a' = Lcm_edge.analyze ~workers:(pool ()) g in
      let b = Bcm_edge.analyze g in
      let b' = Bcm_edge.analyze ~workers:(pool ()) g in
      same_decisions "lcm" (a.Lcm_edge.insert, a.Lcm_edge.delete)
        (a'.Lcm_edge.insert, a'.Lcm_edge.delete)
      && same_decisions "bcm" (b.Bcm_edge.insert, b.Bcm_edge.delete)
           (b'.Bcm_edge.insert, b'.Bcm_edge.delete))

(* Corpus fan-out: reports (order, counters, digests) identical to the
   sequential map at several pool widths, including the degenerate 1. *)
let test_corpus_deterministic () =
  let jobs = Corpus.generate [ (20, 6); (40, 3) ] in
  let reference = Corpus.process jobs in
  Alcotest.(check int) "job count" 9 (List.length reference);
  List.iter
    (fun domains ->
      let p = Pool.create domains in
      let got = Corpus.process ~workers:p jobs in
      Pool.shutdown p;
      Alcotest.(check bool)
        (Printf.sprintf "reports identical at %d domains" domains)
        true (got = reference))
    [ 1; 2; 4 ];
  (* And against the shared suite pool, twice (cache-warm second run). *)
  Alcotest.(check bool) "suite pool run 1" true (Corpus.process ~workers:(pool ()) jobs = reference);
  Alcotest.(check bool) "suite pool run 2" true (Corpus.process ~workers:(pool ()) jobs = reference)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_run_par_equals_sequential;
    QCheck_alcotest.to_alcotest prop_safety_systems_par;
    QCheck_alcotest.to_alcotest prop_lcm_workers;
    Alcotest.test_case "corpus fan-out is deterministic" `Quick test_corpus_deterministic;
  ]
