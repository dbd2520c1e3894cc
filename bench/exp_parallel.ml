(* EXP-PARALLEL: multicore throughput of corpus fan-out.

   [Corpus.process ~workers] maps analyze+transform over a ~10k-block
   deterministic suite of functions, one pool task per function — the
   "compiler server" workload.  Each function is one sequential solve:
   corpus fan-out and the daemon's request batching are the only layers
   that use a pool, so this is the one analysis layer to measure.

   Domain counts 1/2/4/8 each get their own pool (created and shut down
   around the measurement).  The emitted BENCH_parallel.json records
   [host_cores] (Domain.recommended_domain_count): speedups above it are
   not physically reachable on the measuring machine, so the JSON is
   interpretable wherever it was produced.  Corpus digests are checked
   identical across all domain counts — the determinism contract, measured
   rather than assumed — and a mismatch fails the experiment.

   Quick mode (CI smoke): domains {1,2}, a toy corpus, one repetition, no
   JSON. *)

module Table = Lcm_support.Table
module Pool = Lcm_support.Pool
module Corpus = Lcm_eval.Corpus
module Solver = Lcm_dataflow.Solver

let domain_counts ~quick = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]

let corpus_counts ~quick =
  if quick then [ (50, 4) ] else [ (100, 40); (300, 10); (1000, 3) ] (* 10_000 blocks *)

let best_of ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type corpus_row = {
  c_domains : int;
  c_wall_s : float;
  c_blocks_per_sec : float;
  c_speedup : float;  (* vs the 1-domain run *)
}

let measure_corpus ~quick =
  let reps = if quick then 1 else 3 in
  let jobs = Corpus.generate (corpus_counts ~quick) in
  let total = Corpus.total_blocks jobs in
  let reference = ref None in
  let deterministic = ref true in
  let rows =
    List.map
      (fun d ->
        let pool = Pool.create d in
        let wall = best_of ~reps (fun () -> Corpus.process ~workers:pool jobs) in
        let ds = Corpus.digests (Corpus.process ~workers:pool jobs) in
        Pool.shutdown pool;
        (match !reference with
        | None -> reference := Some ds
        | Some r -> if ds <> r then deterministic := false);
        {
          c_domains = d;
          c_wall_s = wall;
          c_blocks_per_sec = float_of_int total /. wall;
          c_speedup = 1.;
        })
      (domain_counts ~quick)
  in
  let one =
    match rows with
    | first :: _ -> first.c_wall_s
    | [] -> nan
  in
  let rows = List.map (fun r -> { r with c_speedup = one /. r.c_wall_s }) rows in
  (jobs, total, rows, !deterministic)

let print_corpus total rows deterministic =
  Common.note "corpus: %d blocks total; digests identical across domain counts: %b" total
    deterministic;
  let t = Table.create [ "domains"; "wall (ms)"; "blocks/s"; "speedup vs 1" ] in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_int r.c_domains;
          Table.cell_float ~decimals:3 (1000. *. r.c_wall_s);
          Printf.sprintf "%.0f" r.c_blocks_per_sec;
          Printf.sprintf "%.2fx" r.c_speedup;
        ])
    rows;
  Table.print t

let emit_json ?(path = "BENCH_parallel.json") (jobs, total, corpus, deterministic) =
  let corpus_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             "    { \"domains\": %d, \"wall_s\": %.6f, \"blocks_per_sec\": %.0f, \
              \"speedup_vs_1domain\": %.2f }"
             r.c_domains r.c_wall_s r.c_blocks_per_sec r.c_speedup)
         corpus)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"parallel\",\n\
    \  \"engine\": \"%s\",\n\
    \  \"host_cores\": %d,\n\
    \  \"corpus\": {\n\
    \    \"graphs\": %d,\n\
    \    \"total_blocks\": %d,\n\
    \    \"deterministic_across_domain_counts\": %b,\n\
    \    \"rows\": [\n%s\n  ]\n\
    \  }\n\
     }\n"
    Solver.default_engine_name
    (Domain.recommended_domain_count ())
    (List.length jobs) total deterministic corpus_json;
  close_out oc;
  Common.note "wrote %s" path

let run_mode ~quick () =
  Common.section
    (if quick then "EXP-PARALLEL  Corpus fan-out (quick smoke run)"
     else "EXP-PARALLEL  Corpus fan-out across domains");
  Common.note "host cores (Domain.recommended_domain_count): %d"
    (Domain.recommended_domain_count ());
  let ((_, total, corpus_rows, deterministic) as corpus) = measure_corpus ~quick in
  print_corpus total corpus_rows deterministic;
  if not deterministic then
    failwith "EXP-PARALLEL: corpus digests differ across domain counts";
  if not quick then emit_json corpus;
  Common.note
    "corpus rows: analyze+transform over the whole suite, best-of-%d, one pool task per \
     function; each function is one sequential solve."
    (if quick then 1 else 3)

let run () = run_mode ~quick:false ()
let run_quick () = run_mode ~quick:true ()
