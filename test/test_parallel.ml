(* Corpus fan-out, the one analysis layer that runs on a pool:
   Corpus.process ~workers ≡ sequential process — identical reports,
   including the transformed-graph digests, at several pool widths.  Each
   job is one sequential solve, so nothing inside a request is shared
   across domains. *)

module Pool = Lcm_support.Pool
module Corpus = Lcm_eval.Corpus

(* Shared 4-domain pool for the whole suite (created lazily so a filtered
   run doesn't spawn domains, shut down at exit). *)
let pool =
  let p = lazy (Pool.create 4) in
  at_exit (fun () -> if Lazy.is_val p then Pool.shutdown (Lazy.force p));
  fun () -> Lazy.force p

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
    Alcotest.test_case "corpus fan-out is deterministic" `Quick test_corpus_deterministic;
  ]
