module Cfg = Lcm_cfg.Cfg
module Pass = Lcm_core.Pass
module Lcm_edge = Lcm_core.Lcm_edge
module Bcm_edge = Lcm_core.Bcm_edge
module Lcm_node = Lcm_core.Lcm_node
module Morel_renvoise = Lcm_baselines.Morel_renvoise
module Gcse = Lcm_baselines.Gcse
module Licm = Lcm_baselines.Licm
module Lcse = Lcm_opt.Lcse
module Cleanup = Lcm_opt.Cleanup
module Strength_reduction = Lcm_opt.Strength_reduction

type entry = {
  name : string;
  description : string;
  is_paper_algorithm : bool;
  speculative : bool;
  preserves_expressions : bool;
  pipeline : Pass.Pipeline.t;
  run : Cfg.t -> Cfg.t;
}

(* [run] is always derived from the pipeline (sequential context), so the
   two can never disagree. *)
let make ?(is_paper_algorithm = false) ?(speculative = false) ?(preserves_expressions = true) name
    description passes =
  let pipeline = Pass.Pipeline.v name passes in
  {
    name;
    description;
    is_paper_algorithm;
    speculative;
    preserves_expressions;
    pipeline;
    run = (fun g -> Pass.Pipeline.run_graph Pass.default_ctx pipeline g);
  }

let plain name description passes = make name description passes
let paper name description passes = make ~is_paper_algorithm:true name description passes

let dvnt_pass =
  Pass.v "ssa-dvnt" (fun _ctx g ->
      let g', s = Lcm_ssa.Dvnt.pass g in
      ( g',
        Pass.report
          ~notes:
            [
              ("exprs_replaced", string_of_int s.Lcm_ssa.Dvnt.exprs_replaced);
              ("phis_simplified", string_of_int s.Lcm_ssa.Dvnt.phis_simplified);
            ]
          () ))

let all =
  [
    plain "identity" "no transformation" [ Pass.of_fn "identity" Cfg.copy ];
    plain "lcse" "local value numbering with temporaries" [ Lcse.pass ];
    plain "gcse" "global CSE: full redundancies only (AVAIL-based)" [ Gcse.pass ];
    make ~speculative:true "licm" "dominator-based loop-invariant code motion (speculative)"
      [ Licm.pass ];
    make ~speculative:true "strength-reduction"
      "loop strength reduction of induction-variable multiplications (speculative)"
      [ Strength_reduction.pass ];
    make ~preserves_expressions:false "ssa-dvnt"
      "dominator-based value numbering over SSA form" [ dvnt_pass ];
    plain "morel-renvoise" "Morel-Renvoise 1979 bidirectional PRE" [ Morel_renvoise.pass ];
    paper "bcm-edge" "Busy Code Motion, edge insertions (earliest placement)" [ Bcm_edge.pass ];
    paper "lcm-edge"
      "Lazy Code Motion, edge insertions (the paper's algorithm, practical form)"
      [ Lcm_edge.pass ];
    paper "lcm-block"
      "Lazy Code Motion with entry/exit placements on a pre-split graph (TOPLAS form)"
      [ Lcm_core.Lcm_block.pass ];
    make ~is_paper_algorithm:true ~preserves_expressions:false "lcm-cleanup"
      "lcm-edge followed by the copy-prop/fold/DCE cleanup pipeline"
      [ Lcm_edge.pass; Cleanup.pass ];
    make ~preserves_expressions:false "lcm-iterated"
      "lcm-edge and cleanup repeated: copy propagation exposes value redundancies to the next round"
      [ Lcm_edge.pass; Cleanup.pass; Lcm_edge.pass; Cleanup.pass ];
    paper "bcm-node" "Busy Code Motion, node form of PLDI 1992" [ Lcm_node.pass Lcm_node.Bcm ];
    paper "alcm-node" "Almost-lazy Code Motion (no isolation pruning)"
      [ Lcm_node.pass Lcm_node.Alcm ];
    paper "lcm-node" "Lazy Code Motion, node form of PLDI 1992" [ Lcm_node.pass Lcm_node.Lcm ];
  ]

let safe = List.filter (fun e -> not e.speculative) all
let paper_algorithms = List.filter (fun e -> e.is_paper_algorithm) all
let find name = List.find_opt (fun e -> String.equal e.name name) all
let names () = List.map (fun e -> e.name) all

let new_temps ~original ~transformed =
  let old_vars = Cfg.all_vars original in
  List.filter (fun v -> not (List.mem v old_vars)) (Cfg.all_vars transformed)
