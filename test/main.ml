(* Test entry point: one alcotest run across every suite. *)

let () =
  Alcotest.run "lcm"
    [
      ("bitvec", Test_bitvec.suite);
      ("prng", Test_prng.suite);
      ("expr", Test_expr.suite);
      ("parser", Test_parser.suite);
      ("cfg", Test_cfg.suite);
      ("cfg-memo", Test_cfg_memo.suite);
      ("graph-algos", Test_graph_algos.suite);
      ("cfg-text", Test_cfg_text.suite);
      ("dataflow", Test_dataflow.suite);
      ("solver", Test_solver.suite);
      ("transform", Test_transform.suite);
      ("lcm-edge", Test_lcm.suite);
      ("lcm-node", Test_lcm_node.suite);
      ("baselines", Test_baselines.suite);
      ("interp", Test_interp.suite);
      ("figures", Test_figures.suite);
      ("opt", Test_opt.suite);
      ("oracle", Test_oracle.suite);
      ("ssa", Test_ssa.suite);
      ("robustness", Test_robustness.suite);
      ("misc", Test_misc.suite);
      ("placement-check", Test_placement_check.suite);
      ("properties", Test_properties.suite);
      ("obs", Test_obs.suite);
      ("pool", Test_pool.suite);
      ("arena", Test_arena.suite);
      ("parallel", Test_parallel.suite);
      ("frontend", Test_frontend.suite);
      ("server", Test_server.suite);
      ("shard", Test_shard.suite);
      ("incremental", Test_incr.suite);
      ("journal", Test_journal.suite);
      ("chaos", Test_chaos.suite);
      ("readers", Test_readers.suite);
      ("builder", Test_build.suite);
    ]
