(* The domain pool: batch execution, the nested-run refusal, exception
   propagation, and the thread-safety of the two lazily-built shared
   structures the engines rely on (Cfg's adjacency snapshot, Expr_pool's
   reading memo). *)

module Pool = Lcm_support.Pool
module Prng = Lcm_support.Prng
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool
module Gencfg = Lcm_eval.Gencfg

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_runs_all_tasks () =
  List.iter
    (fun n ->
      with_pool n (fun pool ->
          let slots = Array.make 100 0 in
          Pool.run pool (List.init 100 (fun i () -> slots.(i) <- i + 1));
          Alcotest.(check int)
            (Printf.sprintf "all tasks ran (%d domains)" n)
            (100 * 101 / 2)
            (Array.fold_left ( + ) 0 slots)))
    [ 1; 2; 4 ]

let test_empty_batch () =
  with_pool 2 (fun pool -> Pool.run pool []);
  with_pool 1 (fun pool -> Pool.run pool [])

let test_nested_run_refused () =
  (* A task may not submit a batch to its own pool, on any path: the
     single-task fast path, the sequential fallback and the queue.  The
     refusal is the task's failure, re-raised by the outer [run]. *)
  List.iter
    (fun (n, width) ->
      with_pool n (fun pool ->
          let refused =
            match
              Pool.run pool (List.init width (fun _ () -> Pool.run pool [ ignore; ignore ]))
            with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          Alcotest.(check bool) (Printf.sprintf "refused (%d domains, %d tasks)" n width) true refused;
          (* The pool is still usable, and a task may use another pool. *)
          let hits = Atomic.make 0 in
          with_pool 2 (fun other ->
              Pool.run pool
                (List.init 4 (fun _ () -> Pool.run other [ (fun () -> Atomic.incr hits); ignore ])));
          Alcotest.(check int) "other pool inside a task" 4 (Atomic.get hits)))
    [ (1, 1); (1, 3); (4, 1); (4, 3) ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun n ->
      with_pool n (fun pool ->
          let completed = ref 0 in
          let raised =
            try
              Pool.run pool
                (List.init 10 (fun i () ->
                     if i = 5 then raise (Boom i) else incr completed));
              false
            with Boom 5 -> true
          in
          Alcotest.(check bool) (Printf.sprintf "Boom re-raised (%d domains)" n) true raised;
          (* The batch still drained: the pool is reusable afterwards. *)
          Pool.run pool [ (fun () -> incr completed) ];
          Alcotest.(check int) "pool alive after failure" 10 !completed))
    [ 1; 4 ]

(* --- regression: lazily-built shared state under domain fan-out -------- *)

(* Hammer the per-version adjacency snapshot: many domains force the lazy
   build of the same fresh graph at once, then each checks the snapshot it
   got for internal consistency.  Before the build was lock-guarded, racing
   first calls could observe a half-written cache. *)
let test_adjacency_hammer () =
  with_pool 4 (fun pool ->
      let rng = Prng.of_int 77177 in
      for _round = 1 to 25 do
        let g =
          Gencfg.random_cfg
            ~params:{ Gencfg.default_cfg_params with num_blocks = 30 }
            rng
        in
        let edge_counts = Array.make 8 (-1) in
        Pool.run pool
          (List.init 8 (fun i () ->
               (* First calls race to build; later calls must see the same
                  snapshot. *)
               let edges = Cfg.edges g in
               let ok =
                 List.for_all
                   (fun (s, d) ->
                     List.exists (Label.equal d) (Cfg.successors g s)
                     && List.exists (Label.equal s) (Cfg.predecessors g d))
                   edges
               in
               if ok then edge_counts.(i) <- List.length edges));
        Array.iter
          (fun c -> Alcotest.(check int) "same consistent edge list" (List.length (Cfg.edges g)) c)
          edge_counts
      done)

(* Hammer the reading memo: domains query overlapping variables on a fresh
   pool; every answer must equal the single-domain scan. *)
let test_reading_memo_hammer () =
  let vars = [ "a"; "b"; "c"; "d"; "e" ] in
  let exprs =
    List.concat_map
      (fun x -> List.map (fun y -> Expr.Binary (Expr.Add, Expr.Var x, Expr.Var y)) vars)
      vars
  in
  with_pool 4 (fun pool ->
      for _round = 1 to 25 do
        let p = Expr_pool.create () in
        List.iter (fun e -> ignore (Expr_pool.add p e)) exprs;
        (* Expected answers from a second, identical pool whose memo is
           filled single-domain; [p]'s memo is only ever touched by the
           racing tasks below. *)
        let q = Expr_pool.create () in
        List.iter (fun e -> ignore (Expr_pool.add q e)) exprs;
        let expected = List.map (Expr_pool.reading q) vars in
        let got = Array.make (4 * List.length vars) [] in
        Pool.run pool
          (List.concat_map
             (fun task ->
               List.mapi
                 (fun j v () -> got.((task * List.length vars) + j) <- Expr_pool.reading p v)
                 vars)
             [ 0; 1; 2; 3 ]);
        for task = 0 to 3 do
          List.iteri
            (fun j e ->
              Alcotest.(check (list int)) "reading under fan-out" e got.((task * List.length vars) + j))
            expected
        done
      done)

(* The daemon's --workers clamp, as a function: no domain is started. *)
let test_clamp_workers () =
  let clamp cores n = Pool.clamp_workers ~cores n in
  Alcotest.(check int) "above the cores" 2 (clamp 2 4);
  Alcotest.(check int) "far above" 2 (clamp 2 64);
  Alcotest.(check int) "at the cores" 2 (clamp 2 2);
  Alcotest.(check int) "below the cores" 1 (clamp 2 1);
  Alcotest.(check int) "wide host" 3 (clamp 8 3);
  Alcotest.(check int) "no core count" 5 (clamp 0 5)

let suite =
  [
    Alcotest.test_case "serve --workers clamps to the host's cores" `Quick test_clamp_workers;
    Alcotest.test_case "run executes every task" `Quick test_runs_all_tasks;
    Alcotest.test_case "empty batch" `Quick test_empty_batch;
    Alcotest.test_case "nested run refused" `Quick test_nested_run_refused;
    Alcotest.test_case "task exceptions re-raised, pool survives" `Quick test_exception_propagates;
    Alcotest.test_case "adjacency snapshot under domain fan-out" `Quick test_adjacency_hammer;
    Alcotest.test_case "Expr_pool.reading memo under domain fan-out" `Quick test_reading_memo_hammer;
  ]
