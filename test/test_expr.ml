(* Expressions, pools and instructions. *)

module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool
module Instr = Lcm_ir.Instr

let a = Expr.Var "a"
let b = Expr.Var "b"
let add x y = Expr.Binary (Expr.Add, x, y)
let sub x y = Expr.Binary (Expr.Sub, x, y)

let test_canonical_commutative () =
  Alcotest.(check bool) "a+b = canon(b+a)" true (Expr.equal (Expr.canonical (add b a)) (add a b));
  Alcotest.(check bool) "a-b stays" true (Expr.equal (Expr.canonical (sub b a)) (sub b a));
  Alcotest.(check bool) "const and var order" true
    (Expr.equal (Expr.canonical (add a (Expr.Const 1))) (Expr.canonical (add (Expr.Const 1) a)))

let test_vars () =
  Alcotest.(check (list string)) "binary" [ "a"; "b" ] (Expr.vars (add a b));
  Alcotest.(check (list string)) "unary" [ "a" ] (Expr.vars (Expr.Unary (Expr.Neg, a)));
  Alcotest.(check (list string)) "consts" [] (Expr.vars (add (Expr.Const 1) (Expr.Const 2)))

let test_reads_var () =
  Alcotest.(check bool) "reads a" true (Expr.reads_var (add a b) "a");
  Alcotest.(check bool) "not c" false (Expr.reads_var (add a b) "c")

let test_is_candidate () =
  Alcotest.(check bool) "binary yes" true (Expr.is_candidate (add a b));
  Alcotest.(check bool) "unary yes" true (Expr.is_candidate (Expr.Unary (Expr.Not, a)));
  Alcotest.(check bool) "atom no" false (Expr.is_candidate (Expr.Atom a))

let test_pp () =
  Alcotest.(check string) "binary" "a + b" (Expr.to_string (add a b));
  Alcotest.(check string) "unary" "-a" (Expr.to_string (Expr.Unary (Expr.Neg, a)));
  Alcotest.(check string) "atom" "42" (Expr.to_string (Expr.Atom (Expr.Const 42)))

let test_pool_dedup () =
  let pool = Expr_pool.create () in
  let i1 = Expr_pool.add pool (add a b) in
  let i2 = Expr_pool.add pool (add b a) in
  let i3 = Expr_pool.add pool (sub a b) in
  Alcotest.(check int) "commutative dedup" i1 i2;
  Alcotest.(check bool) "distinct" true (i1 <> i3);
  Alcotest.(check int) "size" 2 (Expr_pool.size pool);
  Alcotest.(check bool) "expr roundtrip" true (Expr.equal (Expr_pool.expr pool i1) (add a b))

let test_pool_rejects_atoms () =
  let pool = Expr_pool.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Expr_pool.add pool (Expr.Atom a));
       false
     with Invalid_argument _ -> true)

let test_pool_reading () =
  let pool = Expr_pool.create () in
  let i1 = Expr_pool.add pool (add a b) in
  let _ = Expr_pool.add pool (Expr.Binary (Expr.Mul, Expr.Var "c", Expr.Const 2)) in
  let i3 = Expr_pool.add pool (sub a (Expr.Const 1)) in
  Alcotest.(check (list int)) "reading a" [ i1; i3 ] (Expr_pool.reading pool "a")

(* The cache fill is one pass for every variable, probed by the
   [pool.reading] fault point once per fill, before the table counts as
   valid: a fault there must leave the next call to rebuild it whole. *)
let test_pool_reading_fault () =
  let module Fault = Lcm_support.Fault in
  let pool = Expr_pool.create () in
  let i1 = Expr_pool.add pool (add a b) in
  let i2 = Expr_pool.add pool (Expr.Binary (Expr.Mul, Expr.Var "c", Expr.Var "c")) in
  let i3 = Expr_pool.add pool (sub a (Expr.Const 1)) in
  let fills () =
    match List.find_opt (fun (p, _, _) -> p = "pool.reading") (Fault.counts ()) with
    | Some (_, occurrences, _) -> occurrences
    | None -> 0
  in
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.configure ~seed:1 [ ("pool.reading", 1.0) ];
      (match Expr_pool.reading pool "a" with
      | _ -> Alcotest.fail "the fault did not fire"
      | exception Fault.Injected _ -> ());
      Alcotest.(check int) "one probe for the failed fill" 1 (fills ());
      (* A rate that never fires in practice, so the probes are counted. *)
      Fault.configure ~seed:1 [ ("pool.reading", 1e-12) ];
      Alcotest.(check (list int)) "rebuilt after the fault" [ i1; i3 ] (Expr_pool.reading pool "a");
      Alcotest.(check (list int)) "b" [ i1 ] (Expr_pool.reading pool "b");
      Alcotest.(check (list int)) "c * c listed once" [ i2 ] (Expr_pool.reading pool "c");
      Alcotest.(check (list int)) "unread variable" [] (Expr_pool.reading pool "zz");
      Alcotest.(check int) "one fill serves every variable" 1 (fills ());
      let i4 = Expr_pool.add pool (Expr.Unary (Expr.Neg, a)) in
      Alcotest.(check (list int)) "refilled after growth" [ i1; i3; i4 ] (Expr_pool.reading pool "a");
      Alcotest.(check int) "growth refills once" 2 (fills ()))

let test_pool_growth () =
  let pool = Expr_pool.create () in
  for i = 0 to 99 do
    ignore (Expr_pool.add pool (add a (Expr.Const i)))
  done;
  Alcotest.(check int) "100 exprs" 100 (Expr_pool.size pool);
  Alcotest.(check int) "index stable" 100 (List.length (Expr_pool.to_list pool))

let test_instr () =
  let i = Instr.Assign ("x", add a b) in
  Alcotest.(check (option string)) "defs" (Some "x") (Instr.defs i);
  Alcotest.(check (list string)) "uses" [ "a"; "b" ] (Instr.uses i);
  Alcotest.(check bool) "candidate" true (Option.is_some (Instr.candidate i));
  Alcotest.(check bool) "modifies x" true (Instr.modifies i "x");
  let p = Instr.Print (Expr.Var "y") in
  Alcotest.(check (option string)) "print defs" None (Instr.defs p);
  Alcotest.(check (list string)) "print uses" [ "y" ] (Instr.uses p);
  Alcotest.(check bool) "print candidate" false (Option.is_some (Instr.candidate p));
  Alcotest.(check string) "pp" "x := a + b" (Instr.to_string i)

let suite =
  [
    Alcotest.test_case "canonicalization" `Quick test_canonical_commutative;
    Alcotest.test_case "vars" `Quick test_vars;
    Alcotest.test_case "reads_var" `Quick test_reads_var;
    Alcotest.test_case "is_candidate" `Quick test_is_candidate;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "pool dedup via canonicalization" `Quick test_pool_dedup;
    Alcotest.test_case "pool rejects atoms" `Quick test_pool_rejects_atoms;
    Alcotest.test_case "pool reading index" `Quick test_pool_reading;
    Alcotest.test_case "pool reading: fault point and rebuild" `Quick test_pool_reading_fault;
    Alcotest.test_case "pool growth" `Quick test_pool_growth;
    Alcotest.test_case "instructions" `Quick test_instr;
  ]
