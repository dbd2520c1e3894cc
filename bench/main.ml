(* Experiment harness: regenerates every figure/table of the reproduction
   (see DESIGN.md §4 for the experiment index).

   Usage:
     bench/main.exe                  run everything
     bench/main.exe --experiment f1  run one experiment
                                     (f1 f2 f3 t1 t2 t2c t3 c1 a1 a2)
     bench/main.exe --list           list experiments *)

let experiments =
  [
    ("f1", "running example: analysis annotations (Fig. 1)", Exp_figures.f1);
    ("f2", "running example: busy placement (Fig. BCM)", Exp_figures.f2);
    ("f3", "running example: lazy placement (Fig. LCM)", Exp_figures.f3);
    ("t1", "Theorem 1: correctness and per-path safety", Exp_theorems.t1);
    ("t2", "Theorem 2: dynamic computation counts", Exp_theorems.t2);
    ("t2c", "Theorem 2: brute-force optimality check", Exp_theorems.t2_brute);
    ("t2d", "Theorem 2: critical-edge example vs Morel-Renvoise", Exp_theorems.t2_critical);
    ("t3", "Theorem 3: temporary lifetimes", Exp_theorems.t3);
    ("c1", "cost: solver sweeps and wall-clock", Exp_cost.run);
    ("s1", "static code size and cleanup effects", Exp_size.run);
    ("p1", "dynamic evaluations by loop depth", Exp_profile.run);
    ("a1", "ablation: isolation analysis", Exp_ablation.a1);
    ("a2", "ablation: critical-edge pre-splitting", Exp_ablation.a2);
    ("scale", "solver throughput on random CFGs up to 10k blocks", Exp_scale.run);
    ("parallel", "corpus fan-out across domains", Exp_parallel.run);
    ("serve", "daemon under offered load: throughput, latency, backpressure", Exp_serve.run);
    ("shard", "sharded serving: fleet scaling, result cache, incremental deltas", Exp_shard.run);
    ("recover", "crash durability: journal overhead, recovery time, bit-identity", Exp_recover.run);
    ("chaos", "supervised daemon under injected faults: availability, degradation", Exp_chaos.run);
    ("trace", "observability: tracing overhead, retry-crossing trace reconstruction", Exp_trace.run);
  ]

let list_experiments () =
  List.iter (fun (id, descr, _) -> Printf.printf "%-4s %s\n" id descr) experiments

let run_one id =
  match List.find_opt (fun (i, _, _) -> String.equal i id) experiments with
  | Some (_, _, f) -> f ()
  | None ->
    Printf.eprintf "unknown experiment %S; use --list\n" id;
    exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, _, f) -> f ()) experiments
  | [ _; "--list" ] -> list_experiments ()
  | [ _; "--experiment"; "scale"; "--quick" ] | [ _; "scale"; "--quick" ] -> Exp_scale.run_quick ()
  | [ _; "--experiment"; "parallel"; "--quick" ] | [ _; "parallel"; "--quick" ] ->
    Exp_parallel.run_quick ()
  | [ _; "--experiment"; "serve"; "--quick" ] | [ _; "serve"; "--quick" ] -> Exp_serve.run_quick ()
  | [ _; "--experiment"; "shard"; "--quick" ] | [ _; "shard"; "--quick" ] -> Exp_shard.run_quick ()
  | [ _; "--experiment"; "recover"; "--quick" ] | [ _; "recover"; "--quick" ] ->
    Exp_recover.run_quick ()
  | [ _; "--experiment"; "chaos"; "--quick" ] | [ _; "chaos"; "--quick" ] -> Exp_chaos.run_quick ()
  | [ _; "--experiment"; "trace"; "--quick" ] | [ _; "trace"; "--quick" ] -> Exp_trace.run_quick ()
  | [ _; "--experiment"; id ] | [ _; id ] -> run_one id
  | _ ->
    prerr_endline "usage: main.exe [--list | --experiment <id> [--quick]]";
    exit 1
