(* Graph structure: blocks, edges, mutation, splitting, merging. *)

module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Validate = Lcm_cfg.Validate
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

let assign v n = Instr.Assign (v, Expr.Atom (Expr.Const n))

(* entry → a → (b | c) → d → exit, with a branch at a. *)
let make_diamond () =
  let g = Cfg.create ~name:"diamond" () in
  let a = Cfg.add_block g ~instrs:[ assign "x" 1 ] ~term:Cfg.Halt in
  let b = Cfg.add_block g ~instrs:[ assign "y" 2 ] ~term:Cfg.Halt in
  let c = Cfg.add_block g ~instrs:[ assign "y" 3 ] ~term:Cfg.Halt in
  let d = Cfg.add_block g ~instrs:[ assign "z" 4 ] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Cfg.set_term g a (Cfg.Branch (Expr.Var "x", b, c));
  Cfg.set_term g b (Cfg.Goto d);
  Cfg.set_term g c (Cfg.Goto d);
  Cfg.set_term g d (Cfg.Goto (Cfg.exit_label g));
  (g, a, b, c, d)

let test_create () =
  let g = Cfg.create () in
  Alcotest.(check int) "two blocks" 2 (Cfg.num_blocks g);
  Alcotest.(check bool) "entry first" true (List.hd (Cfg.labels g) = Cfg.entry g);
  Alcotest.(check (list int)) "entry goes to exit" [ Cfg.exit_label g ] (Cfg.successors g (Cfg.entry g));
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_diamond_structure () =
  let g, a, b, c, d = make_diamond () in
  Alcotest.(check int) "blocks" 6 (Cfg.num_blocks g);
  Alcotest.(check (list int)) "succ a" [ b; c ] (Cfg.successors g a);
  Alcotest.(check (list int)) "preds d" [ b; c ] (List.sort compare (Cfg.predecessors g d));
  Alcotest.(check int) "edges" 6 (List.length (Cfg.edges g));
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_preds_cache_invalidation () =
  let g, _a, b, c, d = make_diamond () in
  ignore (Cfg.predecessors g d);
  (* Mutate: retarget b to exit; preds of d must shrink. *)
  Cfg.set_term g b (Cfg.Goto (Cfg.exit_label g));
  Alcotest.(check (list int)) "preds updated" [ c ] (Cfg.predecessors g d)

let test_branch_same_target_dedup () =
  let g = Cfg.create () in
  let a = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Cfg.set_term g a (Cfg.Branch (Expr.Var "x", Cfg.exit_label g, Cfg.exit_label g));
  Alcotest.(check int) "one successor" 1 (List.length (Cfg.successors g a))

let test_split_edge () =
  let g, a, b, _c, _d = make_diamond () in
  let before_edges = List.length (Cfg.edges g) in
  let fresh = Cfg.split_edge g a b in
  Alcotest.(check (list int)) "fresh goes to b" [ b ] (Cfg.successors g fresh);
  Alcotest.(check bool) "a now targets fresh" true (List.mem fresh (Cfg.successors g a));
  Alcotest.(check bool) "a no longer targets b" false (List.mem b (Cfg.successors g a));
  Alcotest.(check int) "one more edge" (before_edges + 1) (List.length (Cfg.edges g));
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_split_missing_edge () =
  let g, _a, b, c, _d = make_diamond () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cfg.split_edge g b c);
       false
     with Invalid_argument _ -> true)

let test_critical_edges () =
  (* a has two successors; d has two predecessors; but no edge a->d, so no
     critical edge in the plain diamond. *)
  let g, a, b, _c, d = make_diamond () in
  Alcotest.(check bool) "b->d not critical" false (Cfg.is_critical_edge g (b, d));
  (* Retarget a's false arm directly to d: now (a,d) is critical. *)
  Cfg.set_term g a (Cfg.Branch (Expr.Var "x", b, d));
  Alcotest.(check bool) "a->d critical" true (Cfg.is_critical_edge g (a, d))

let test_remove_unreachable () =
  let g, a, b, _c, d = make_diamond () in
  (* Cut the branch: goto b only; c becomes unreachable. *)
  Cfg.set_term g a (Cfg.Goto b);
  Cfg.remove_unreachable g;
  Alcotest.(check int) "blocks" 5 (Cfg.num_blocks g);
  Alcotest.(check (list int)) "preds d" [ b ] (Cfg.predecessors g d);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_exit_survives_removal () =
  let g = Cfg.create () in
  let a = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Cfg.set_term g a (Cfg.Goto a);
  (* infinite loop: exit unreachable *)
  Cfg.remove_unreachable g;
  Alcotest.(check bool) "exit kept" true (Cfg.mem g (Cfg.exit_label g))

let test_merge_straight_pairs () =
  let g = Cfg.create () in
  let a = Cfg.add_block g ~instrs:[ assign "x" 1 ] ~term:Cfg.Halt in
  let b = Cfg.add_block g ~instrs:[ assign "y" 2 ] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Cfg.set_term g a (Cfg.Goto b);
  Cfg.set_term g b (Cfg.Goto (Cfg.exit_label g));
  Cfg.merge_straight_pairs g;
  (* The whole chain collapses into the entry block (the exit is never
     absorbed). *)
  Alcotest.(check int) "entry absorbed both" 2 (List.length (Cfg.instrs g (Cfg.entry g)));
  Alcotest.(check bool) "a gone" false (Cfg.mem g a);
  Alcotest.(check bool) "b gone" false (Cfg.mem g b);
  Alcotest.(check int) "two blocks left" 2 (Cfg.num_blocks g);
  Alcotest.(check (list string)) "valid" [] (Validate.check g)

let test_copy_independent () =
  let g, a, _b, _c, _d = make_diamond () in
  let g' = Cfg.copy g in
  Cfg.set_instrs g' a [];
  Alcotest.(check int) "original untouched" 1 (List.length (Cfg.instrs g a));
  Alcotest.(check int) "copy changed" 0 (List.length (Cfg.instrs g' a))

(* A copy shares the source's adjacency snapshot until its own first
   shape edit; editing the copy never disturbs the source's snapshot. *)
let test_copy_shares_adjacency () =
  let g, a, b, c, d = make_diamond () in
  let snap = Cfg.adjacency g in
  let c1 = Cfg.copy g in
  Alcotest.(check int) "copy starts at the source's version" (Cfg.version g) (Cfg.version c1);
  Alcotest.(check bool) "copy reuses the snapshot" true (Cfg.adjacency c1 == snap);
  Cfg.set_instrs c1 a [];
  Alcotest.(check bool) "body edits keep it" true (Cfg.adjacency c1 == snap);
  Cfg.set_term c1 a (Cfg.Goto d);
  Alcotest.(check bool) "version bumped" true (Cfg.version c1 > Cfg.version g);
  Alcotest.(check bool) "shape edit rebuilds the copy's" true (Cfg.adjacency c1 != snap);
  Alcotest.(check (list int)) "copy sees its edge" [ d ] (Cfg.successors c1 a);
  Alcotest.(check bool) "original keeps its snapshot" true (Cfg.adjacency g == snap);
  Alcotest.(check (list int)) "original's edges intact" [ b; c ] (Cfg.successors g a);
  let c2 = Cfg.copy g in
  let l = Cfg.add_block c2 ~instrs:[] ~term:(Cfg.Goto d) in
  Alcotest.(check bool) "add_block rebuilds too" true (Cfg.adjacency c2 != snap);
  Alcotest.(check int) "new block counted" (snap.Cfg.adj_bound + 1) (Cfg.adjacency c2).Cfg.adj_bound;
  Alcotest.(check (list int)) "new block's edge" [ d ] (Cfg.successors c2 l);
  Alcotest.(check bool) "original still served its snapshot" true (Cfg.adjacency g == snap)

let test_all_vars_and_counts () =
  let g, _, _, _, _ = make_diamond () in
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Cfg.all_vars g);
  Alcotest.(check int) "instrs" 4 (Cfg.num_instrs g);
  Alcotest.(check int) "no candidates" 0 (Cfg.num_candidate_occurrences g)

let test_validate_catches_bad_halt () =
  let g = Cfg.create () in
  let a = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Alcotest.(check bool) "non-exit halt flagged" true
    (List.exists (fun s -> String.length s > 0) (Validate.check g))

(* ---- the one printer against a Format reference ----

   [Cfg.to_string] writes into a buffer directly.  The reference below is
   the [Format] printer it replaced, kept only here: a vertical box whose
   every cut is a newline, so the two must agree byte for byte on any
   graph — including lines past Format's margin. *)

module Reference = struct
  let pp_operand ppf = function
    | Expr.Var v -> Format.pp_print_string ppf v
    | Expr.Const n -> Format.pp_print_int ppf n

  let pp_unop ppf = function
    | Expr.Neg -> Format.pp_print_string ppf "-"
    | Expr.Not -> Format.pp_print_string ppf "!"

  let binop_symbol = function
    | Expr.Add -> "+"
    | Expr.Sub -> "-"
    | Expr.Mul -> "*"
    | Expr.Div -> "/"
    | Expr.Mod -> "%"
    | Expr.Lt -> "<"
    | Expr.Le -> "<="
    | Expr.Gt -> ">"
    | Expr.Ge -> ">="
    | Expr.Eq -> "=="
    | Expr.Ne -> "!="
    | Expr.And -> "&&"
    | Expr.Or -> "||"

  let pp_expr ppf = function
    | Expr.Atom a -> pp_operand ppf a
    | Expr.Unary (op, a) -> Format.fprintf ppf "%a%a" pp_unop op pp_operand a
    | Expr.Binary (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_operand a (binop_symbol op) pp_operand b

  let pp_instr ppf = function
    | Instr.Assign (v, e) -> Format.fprintf ppf "%s := %a" v pp_expr e
    | Instr.Print a -> Format.fprintf ppf "print %a" pp_operand a
    | Instr.Effect e ->
      Format.fprintf ppf "do %s" e.Instr.eff_op;
      List.iter (fun f -> Format.fprintf ppf " @%s" f) e.Instr.eff_funcs;
      List.iter (fun a -> Format.fprintf ppf " %a" pp_operand a) e.Instr.eff_args;
      (match e.Instr.eff_dest with
      | Some (v, ty) -> Format.fprintf ppf " -> %s %s" v ty
      | None -> ())

  let pp_label ppf l = Format.fprintf ppf "B%d" l

  let pp_terminator ppf = function
    | Cfg.Goto l -> Format.fprintf ppf "goto %a" pp_label l
    | Cfg.Branch (c, a, b) ->
      Format.fprintf ppf "if %a then %a else %a" pp_operand c pp_label a pp_label b
    | Cfg.Halt -> Format.pp_print_string ppf "halt"

  let pp ppf g =
    Format.fprintf ppf "@[<v>cfg %s (entry %a, exit %a)" (Cfg.name g) pp_label (Cfg.entry g)
      pp_label (Cfg.exit_label g);
    List.iter
      (fun l ->
        Format.fprintf ppf "@,%a:" pp_label l;
        List.iter (fun i -> Format.fprintf ppf "@,  %a" pp_instr i) (Cfg.instrs g l);
        Format.fprintf ppf "@,  %a" pp_terminator (Cfg.term g l))
      (Cfg.labels g);
    Format.fprintf ppf "@]"

  let to_string g = Format.asprintf "%a" pp g
end

let check_printer what g =
  Alcotest.(check string) what (Reference.to_string g) (Cfg.to_string g)

let all_binops =
  Expr.[ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or ]

(* One block per feature the printer spells out: every binary operator,
   both unary ones, negative constants, effects with and without
   funcs/dest/args, a line far past the 78-column margin, and branches on
   constants. *)
let test_printer_hand_built () =
  let g = Cfg.create ~name:"printer" () in
  let long = String.make 120 'v' in
  let binops =
    List.mapi
      (fun k op -> Instr.Assign (Printf.sprintf "t%d" k, Expr.Binary (op, Expr.Var "a", Expr.Const (-k))))
      all_binops
  in
  let misc =
    [
      Instr.Assign ("n", Expr.Unary (Expr.Neg, Expr.Var "a"));
      Instr.Assign ("m", Expr.Unary (Expr.Not, Expr.Const (-3)));
      Instr.Assign ("k", Expr.Atom (Expr.Const min_int));
      Instr.Assign (long, Expr.Binary (Expr.Mul, Expr.Var long, Expr.Var long));
      Instr.Print (Expr.Const (-7));
      Instr.Effect
        {
          Instr.eff_op = "call";
          eff_dest = Some ("r", "ptr<int>");
          eff_args = [ Expr.Var "a"; Expr.Const (-1) ];
          eff_funcs = [ "f"; "g" ];
        };
      Instr.Effect { Instr.eff_op = "free"; eff_dest = None; eff_args = []; eff_funcs = [] };
      Instr.Effect { Instr.eff_op = "alloc"; eff_dest = Some ("p", "int"); eff_args = []; eff_funcs = [] };
    ]
  in
  let b1 = Cfg.add_block g ~instrs:binops ~term:Cfg.Halt in
  let b2 = Cfg.add_block g ~instrs:misc ~term:Cfg.Halt in
  let b3 = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto b1);
  Cfg.set_term g b1 (Cfg.Branch (Expr.Const 0, b2, b3));
  Cfg.set_term g b2 (Cfg.Branch (Expr.Const (-1), b3, Cfg.exit_label g));
  Cfg.set_term g b3 (Cfg.Branch (Expr.Var "a", b1, Cfg.exit_label g));
  check_printer "hand-built" g;
  let e = Expr.Binary (Expr.Sub, Expr.Var "a", Expr.Const (-2)) in
  Alcotest.(check string) "Expr.to_string" (Format.asprintf "%a" Reference.pp_expr e) (Expr.to_string e);
  List.iter
    (fun i ->
      Alcotest.(check string) "Instr.to_string" (Format.asprintf "%a" Reference.pp_instr i)
        (Instr.to_string i))
    (binops @ misc);
  Alcotest.(check string) "Cfg.pp" (Reference.to_string g) (Format.asprintf "%a" Cfg.pp g)

let gen_name =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ "a"; "b"; "x"; "_ret"; "t0" ];
        string_size ~gen:(char_range 'a' 'z') (int_range 1 100);
      ])

let gen_operand =
  QCheck2.Gen.(
    oneof [ map (fun v -> Expr.Var v) gen_name; map (fun n -> Expr.Const n) int ])

let gen_instr =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun v a -> Instr.Assign (v, Expr.Atom a)) gen_name gen_operand;
        map3
          (fun v op a -> Instr.Assign (v, Expr.Unary (op, a)))
          gen_name (oneofl [ Expr.Neg; Expr.Not ]) gen_operand;
        map3
          (fun v op (a, b) -> Instr.Assign (v, Expr.Binary (op, a, b)))
          gen_name (oneofl all_binops) (pair gen_operand gen_operand);
        map (fun a -> Instr.Print a) gen_operand;
        map3
          (fun op (dest, args) funcs ->
            Instr.Effect { Instr.eff_op = op; eff_dest = dest; eff_args = args; eff_funcs = funcs })
          (oneofl [ "call"; "store"; "alloc"; "print" ])
          (pair (opt (pair gen_name (oneofl [ "int"; "bool"; "ptr<int>" ]))) (list_size (int_bound 3) gen_operand))
          (list_size (int_bound 2) gen_name);
      ])

(* Random bodies over a random shape: block [k]'s terminator targets are
   drawn among all blocks, so back edges and self loops occur. *)
let gen_graph =
  QCheck2.Gen.(
    let* name = gen_name in
    let* bodies = list_size (int_range 0 12) (list_size (int_bound 6) gen_instr) in
    let n = List.length bodies in
    let* terms =
      flatten_l
        (List.map
           (fun _ ->
             let target = int_bound (n + 1) in
             oneof
               [
                 map (fun t -> `Goto t) target;
                 map3 (fun c a b -> `Branch (c, a, b)) gen_operand target target;
               ])
           bodies)
    in
    return (name, bodies, terms))

let build_graph (name, bodies, terms) =
  let g = Cfg.create ~name () in
  let labels = List.map (fun is -> Cfg.add_block g ~instrs:is ~term:Cfg.Halt) bodies in
  let all = Array.of_list (Cfg.entry g :: Cfg.exit_label g :: labels) in
  let pick k = all.(k mod Array.length all) in
  List.iter2
    (fun l t ->
      Cfg.set_term g l
        (match t with
        | `Goto k -> Cfg.Goto (pick (k + 1))
        | `Branch (c, a, b) -> Cfg.Branch (c, pick (a + 1), pick (b + 1))))
    labels terms;
  (match labels with l :: _ -> Cfg.set_term g (Cfg.entry g) (Cfg.Goto l) | [] -> ());
  g

let prop_printer_matches_reference =
  QCheck2.Test.make ~name:"Cfg.to_string = Format reference printer (hand-built graphs)" ~count:300
    gen_graph (fun spec ->
      let g = build_graph spec in
      String.equal (Reference.to_string g) (Cfg.to_string g))

let prop_printer_matches_reference_gencfg =
  QCheck2.Test.make ~name:"Cfg.to_string = Format reference printer (Gencfg graphs)" ~count:100
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Lcm_support.Prng.of_int seed in
      let params =
        { Lcm_eval.Gencfg.default_cfg_params with Lcm_eval.Gencfg.num_blocks = 2 + (seed mod 60) }
      in
      let g = Lcm_eval.Gencfg.random_cfg ~params rng in
      String.equal (Reference.to_string g) (Cfg.to_string g)
      && String.equal (Digest.to_hex (Digest.string (Reference.to_string g))) (Cfg.digest g))

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "diamond structure" `Quick test_diamond_structure;
    Alcotest.test_case "predecessor cache invalidation" `Quick test_preds_cache_invalidation;
    Alcotest.test_case "branch with equal targets" `Quick test_branch_same_target_dedup;
    Alcotest.test_case "split edge" `Quick test_split_edge;
    Alcotest.test_case "split missing edge raises" `Quick test_split_missing_edge;
    Alcotest.test_case "critical edges" `Quick test_critical_edges;
    Alcotest.test_case "remove unreachable" `Quick test_remove_unreachable;
    Alcotest.test_case "exit survives removal" `Quick test_exit_survives_removal;
    Alcotest.test_case "merge straight pairs" `Quick test_merge_straight_pairs;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "copy shares the adjacency snapshot" `Quick test_copy_shares_adjacency;
    Alcotest.test_case "all_vars and counts" `Quick test_all_vars_and_counts;
    Alcotest.test_case "validate catches stray halt" `Quick test_validate_catches_bad_halt;
    Alcotest.test_case "printer: hand-built graph = Format reference" `Quick test_printer_hand_built;
    QCheck_alcotest.to_alcotest prop_printer_matches_reference;
    QCheck_alcotest.to_alcotest prop_printer_matches_reference_gencfg;
  ]
