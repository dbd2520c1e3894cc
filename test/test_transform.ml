(* The transformation engine: edits specified by specs are performed
   faithfully and invalid specs are rejected. *)

module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Lower = Lcm_cfg.Lower
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool
module Instr = Lcm_ir.Instr
module Transform = Lcm_core.Transform
module Temps = Lcm_core.Temps

let a_plus_b = Expr.Binary (Expr.Add, Expr.Var "a", Expr.Var "b")

let simple_graph () =
  let g = Cfg.create () in
  let b1 = Cfg.add_block g ~instrs:[ Instr.Assign ("x", a_plus_b) ] ~term:Cfg.Halt in
  let b2 = Cfg.add_block g ~instrs:[ Instr.Assign ("y", a_plus_b) ] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto b1);
  Cfg.set_term g b1 (Cfg.Goto b2);
  Cfg.set_term g b2 (Cfg.Goto (Cfg.exit_label g));
  (g, b1, b2)

let base_spec g =
  let pool = Cfg.candidate_pool g in
  {
    Transform.algorithm = "test";
    pool;
    temp_names = Temps.names g pool;
    rank = [||];
    edge_inserts = [];
    entry_inserts = [];
    exit_inserts = [];
    deletes = [];
    copies = [];
  }

let one = Bitvec.of_list 1 [ 0 ]

let test_identity () =
  let g, _, _ = simple_graph () in
  let g', report = Transform.apply g (base_spec g) in
  Alcotest.(check int) "no edits" 0
    (report.Transform.num_deletions + report.Transform.num_edge_insertions
   + report.Transform.num_entry_insertions + report.Transform.num_copies);
  Alcotest.(check int) "same blocks" (Cfg.num_blocks g) (Cfg.num_blocks g')

let test_delete_rewrites_first_occurrence () =
  let g, _, b2 = simple_graph () in
  let spec = { (base_spec g) with Transform.deletes = [ (b2, Bitvec.copy one) ] } in
  let g', report = Transform.apply g spec in
  Alcotest.(check int) "one deletion" 1 report.Transform.num_deletions;
  (match Cfg.instrs g' b2 with
  | [ Instr.Assign ("y", Expr.Atom (Expr.Var t)) ] ->
    Alcotest.(check string) "reads the temp" spec.Transform.temp_names.(0) t
  | _ -> Alcotest.fail "expected y := temp");
  (* Original graph untouched. *)
  Alcotest.(check int) "original intact" 1 (List.length (Cfg.instrs g b2))

let test_delete_missing_occurrence_fails () =
  let g, b1, _ = simple_graph () in
  Cfg.set_instrs g b1 [];
  let spec = { (base_spec g) with Transform.deletes = [ (b1, Bitvec.copy one) ] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Transform.apply g spec);
       false
     with Failure _ -> true)

let test_edge_insert_splits () =
  let g, b1, b2 = simple_graph () in
  let spec = { (base_spec g) with Transform.edge_inserts = [ ((b1, b2), Bitvec.copy one) ] } in
  let g', report = Transform.apply g spec in
  Alcotest.(check int) "one insertion" 1 report.Transform.num_edge_insertions;
  (match report.Transform.split_blocks with
  | [ ((s, d), fresh) ] ->
    Alcotest.(check (pair int int)) "split of b1->b2" (b1, b2) (s, d);
    (match Cfg.instrs g' fresh with
    | [ Instr.Assign (t, e) ] ->
      Alcotest.(check string) "temp target" spec.Transform.temp_names.(0) t;
      Alcotest.(check bool) "computes a+b" true (Expr.equal e a_plus_b)
    | _ -> Alcotest.fail "expected one inserted instruction")
  | _ -> Alcotest.fail "expected one split block")

let test_entry_and_exit_inserts () =
  let g, b1, _ = simple_graph () in
  let spec =
    {
      (base_spec g) with
      Transform.entry_inserts = [ (b1, Bitvec.copy one) ];
      exit_inserts = [ (b1, Bitvec.copy one) ];
    }
  in
  let g', report = Transform.apply g spec in
  Alcotest.(check int) "entry insert" 1 report.Transform.num_entry_insertions;
  Alcotest.(check int) "exit insert" 1 report.Transform.num_exit_insertions;
  match Cfg.instrs g' b1 with
  | [ Instr.Assign (t1, _); Instr.Assign ("x", _); Instr.Assign (t2, _) ] ->
    Alcotest.(check string) "first is temp" spec.Transform.temp_names.(0) t1;
    Alcotest.(check string) "last is temp" spec.Transform.temp_names.(0) t2
  | is -> Alcotest.failf "expected 3 instructions, got %d" (List.length is)

let test_copy_after_downward_exposed () =
  let g = Cfg.create () in
  (* x := a+b ; a := 0 ; y := a+b ; z := 1 — the downwards-exposed occurrence
     of a+b is the second one; the copy must land right after it. *)
  let b =
    Cfg.add_block g
      ~instrs:
        [
          Instr.Assign ("x", a_plus_b);
          Instr.Assign ("a", Expr.Atom (Expr.Const 0));
          Instr.Assign ("y", a_plus_b);
          Instr.Assign ("z", Expr.Atom (Expr.Const 1));
        ]
      ~term:(Cfg.Goto (Cfg.exit_label g))
  in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto b);
  let spec = { (base_spec g) with Transform.copies = [ (b, Bitvec.copy one) ] } in
  let g', report = Transform.apply g spec in
  Alcotest.(check int) "one copy" 1 report.Transform.num_copies;
  match Cfg.instrs g' b with
  | [ _; _; Instr.Assign ("y", _); Instr.Assign (t, Expr.Atom (Expr.Var "y")); _ ] ->
    Alcotest.(check string) "copy into temp" spec.Transform.temp_names.(0) t
  | is -> Alcotest.failf "unexpected layout (%d instrs)" (List.length is)

let test_copy_without_occurrence_fails () =
  let g, b1, _ = simple_graph () in
  Cfg.set_instrs g b1 [ Instr.Assign ("a", Expr.Atom (Expr.Const 0)) ];
  let spec = { (base_spec g) with Transform.copies = [ (b1, Bitvec.copy one) ] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Transform.apply g spec);
       false
     with Failure _ -> true)

let test_simplify_merges_split_blocks () =
  let g, b1, b2 = simple_graph () in
  let spec = { (base_spec g) with Transform.edge_inserts = [ ((b1, b2), Bitvec.copy one) ] } in
  let unsimplified, _ = Transform.apply g spec in
  let simplified, _ = Transform.apply ~simplify:true g spec in
  Alcotest.(check bool) "simplified has fewer blocks" true
    (Cfg.num_blocks simplified < Cfg.num_blocks unsimplified)

let test_self_kill_delete () =
  (* Deleting the upwards-exposed occurrence in x := x + 1 must rewrite it
     even though the instruction kills its own expression. *)
  let g = Cfg.create () in
  let x_plus_1 = Expr.Binary (Expr.Add, Expr.Var "x", Expr.Const 1) in
  let b = Cfg.add_block g ~instrs:[ Instr.Assign ("x", x_plus_1) ] ~term:(Cfg.Goto (Cfg.exit_label g)) in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto b);
  let spec = { (base_spec g) with Transform.deletes = [ (b, Bitvec.copy one) ] } in
  let g', _ = Transform.apply g spec in
  match Cfg.instrs g' b with
  | [ Instr.Assign ("x", Expr.Atom (Expr.Var _)) ] -> ()
  | _ -> Alcotest.fail "expected x := temp"

(* ---- Temps.names against the list-based prefix search ---- *)

(* The former [Fresh.prefix]: extend the seed one underscore at a time
   until no name starts with it. *)
let reference_prefix ~existing seed =
  let rec search candidate =
    if List.exists (fun v -> String.starts_with ~prefix:candidate v) existing then search (candidate ^ "_")
    else candidate
  in
  search seed

(* What [Temps.names] computed when it searched the sorted variable list. *)
let reference_names g pool =
  let prefix = reference_prefix ~existing:(Cfg.all_vars g) "_h" in
  Array.init (Expr_pool.size pool) (fun i -> Printf.sprintf "%s%d" prefix i)

let check_names what g =
  let pool = Cfg.candidate_pool g in
  Alcotest.(check (array string)) what (reference_names g pool) (Temps.names g pool)

let test_temp_names_corpus () =
  let dir = "bril" in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".json" then
        let text = In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all in
        List.iter
          (fun (name, g) -> check_names (file ^ ":" ^ name) g)
          (Lcm_frontend.Bril.parse_program text))
    (Sys.readdir dir)

(* Random graphs, with names near the [_h] prefix planted as definitions,
   operands, effect destinations and arguments, prints and branch
   conditions. *)
let prop_temp_names_random =
  let near = [| "_h"; "_h0"; "_h_"; "_h__x"; "_h___"; "_hx"; "h_"; "_"; "__h"; "_H"; "a" |] in
  QCheck2.Test.make ~name:"Temps.names ≡ prefix search over Cfg.all_vars" ~count:200
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Lcm_support.Prng.of_int seed in
      let g = Lcm_eval.Gencfg.random_cfg rng in
      let pick () = near.(Lcm_support.Prng.int rng (Array.length near)) in
      List.iter
        (fun l ->
          if Lcm_support.Prng.int rng 3 = 0 then begin
            let v = Expr.Var (pick ()) in
            let planted =
              match Lcm_support.Prng.int rng 4 with
              | 0 -> Instr.Assign (pick (), Expr.Binary (Expr.Add, v, Expr.Const 1))
              | 1 -> Instr.Assign ("t", Expr.Unary (Expr.Neg, v))
              | 2 -> Instr.Print v
              | _ ->
                Instr.Effect
                  { Instr.eff_op = "call"; eff_dest = Some (pick (), "int"); eff_args = [ v ]; eff_funcs = [] }
            in
            Cfg.set_instrs g l (planted :: Cfg.instrs g l)
          end;
          match Cfg.term g l with
          | Cfg.Branch (_, a, b) when Lcm_support.Prng.int rng 4 = 0 ->
            Cfg.set_term g l (Cfg.Branch (Expr.Var (pick ()), a, b))
          | _ -> ())
        (Cfg.labels g);
      let pool = Cfg.candidate_pool g in
      reference_names g pool = Temps.names g pool)

let prop_fresh_prefix =
  let gen = QCheck2.Gen.(list_size (int_bound 6) (string_size ~gen:(oneofl [ '_'; 'h'; 'x'; '0' ]) (int_bound 6))) in
  QCheck2.Test.make ~name:"Fresh.prefix ≡ underscore-by-underscore search" ~count:500
    ~print:QCheck2.Print.(list string)
    gen (fun existing ->
      List.for_all
        (fun seed -> Lcm_support.Fresh.prefix ~existing seed = reference_prefix ~existing seed)
        [ "_h"; "_"; "h"; "" ])

let test_temp_names_near_prefix () =
  List.iter
    (fun (vars, prefix) ->
      let g = Cfg.create () in
      let b =
        Cfg.add_block g
          ~instrs:(List.map (fun v -> Instr.Assign (v, a_plus_b)) vars)
          ~term:(Cfg.Goto (Cfg.exit_label g))
      in
      Cfg.set_term g (Cfg.entry g) (Cfg.Goto b);
      check_names (String.concat "," vars) g;
      Alcotest.(check string) (String.concat "," vars) (prefix ^ "0") (Temps.names g (Cfg.candidate_pool g)).(0))
    [
      ([ "x" ], "_h");
      ([ "_h" ], "_h_");
      ([ "_h0" ], "_h_");
      ([ "_h_" ], "_h__");
      ([ "_h__x" ], "_h___");
      ([ "_h"; "_h0"; "_h_"; "_h__x" ], "_h___");
      ([ "_hx_"; "h__" ], "_h_");
    ]

let suite =
  [
    Alcotest.test_case "identity spec" `Quick test_identity;
    Alcotest.test_case "delete rewrites occurrence" `Quick test_delete_rewrites_first_occurrence;
    Alcotest.test_case "delete without occurrence fails" `Quick test_delete_missing_occurrence_fails;
    Alcotest.test_case "edge insert splits the edge" `Quick test_edge_insert_splits;
    Alcotest.test_case "entry and exit inserts" `Quick test_entry_and_exit_inserts;
    Alcotest.test_case "copy lands after downwards-exposed occurrence" `Quick test_copy_after_downward_exposed;
    Alcotest.test_case "copy without occurrence fails" `Quick test_copy_without_occurrence_fails;
    Alcotest.test_case "simplify merges blocks" `Quick test_simplify_merges_split_blocks;
    Alcotest.test_case "delete self-killing occurrence" `Quick test_self_kill_delete;
    Alcotest.test_case "temp names: bril corpus" `Quick test_temp_names_corpus;
    Alcotest.test_case "temp names: variables near _h" `Quick test_temp_names_near_prefix;
    QCheck_alcotest.to_alcotest prop_temp_names_random;
    QCheck_alcotest.to_alcotest prop_fresh_prefix;
  ]
