(* Lexer and parser for MiniImp. *)

module Ast = Lcm_ir.Ast
module Expr = Lcm_ir.Expr
module Lexer = Lcm_ir.Lexer
module Parser = Lcm_ir.Parser

let parse_e = Parser.parse_expr

(* Every token of [src] as the cursor shows it: kind, text, line and
   column, up to and including [EOF]. *)
let tokens src =
  let c = Lexer.create src in
  let rec go acc =
    let t = (c.Lexer.token, Lexer.describe c, c.Lexer.line, c.Lexer.col) in
    if c.Lexer.token = Lexer.EOF then List.rev (t :: acc)
    else begin
      Lexer.advance c;
      go (t :: acc)
    end
  in
  go []

let kinds src = List.map (fun (k, text, _, _) -> (k, text)) (tokens src)

let test_tokens () =
  Alcotest.(check bool) "token stream" true
    (kinds "x = a + 12; // comment\nwhile"
    = [
        (Lexer.IDENT, "x"); (Lexer.ASSIGN, "="); (Lexer.IDENT, "a"); (Lexer.PLUS, "+"); (Lexer.INT, "12");
        (Lexer.SEMI, ";"); (Lexer.KW_WHILE, "while"); (Lexer.EOF, "<eof>");
      ])

let test_token_positions () =
  match tokens "a\n  b" with
  | [ (_, _, 1, 1); (_, _, 2, 3); (Lexer.EOF, _, 2, 4) ] -> ()
  | _ -> Alcotest.fail "expected a at 1:1, b at 2:3 and the end at 2:4"

let test_lex_error () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (tokens "x = $;");
       false
     with Lexer.Lex_error (_, 1, 5) -> true)

let test_two_char_operators () =
  Alcotest.(check bool) "operators" true
    (List.map fst (kinds "<= >= == != < > = !")
    = [ Lexer.LE; Lexer.GE; Lexer.EQ; Lexer.NE; Lexer.LT; Lexer.GT; Lexer.ASSIGN; Lexer.BANG; Lexer.EOF ])

(* Past the end the cursor stays on [EOF], at line 0, column 0. *)
let test_past_eof () =
  let c = Lexer.create "x" in
  Lexer.advance c;
  Alcotest.(check (pair int int)) "end" (1, 2) (c.Lexer.line, c.Lexer.col);
  Lexer.advance c;
  Alcotest.(check bool) "past the end" true (c.Lexer.token = Lexer.EOF && c.Lexer.line = 0 && c.Lexer.col = 0)

(* A syntax error on line 1 and an unexpected character on line 3: the
   lex error is reported, as when the whole source was tokenized before
   parsing. *)
let test_lex_error_wins () =
  let src = "function f( {\n  x = 1;\n  y = $;\n}" in
  (match Parser.parse_func src with
  | _ -> Alcotest.fail "parsed"
  | exception Lexer.Lex_error (m, line, col) ->
    Alcotest.(check (triple string int int)) "lex error" ("unexpected character '$'", 3, 7) (m, line, col)
  | exception Parser.Parse_error (m, line, col) -> Alcotest.failf "parse error %s at %d:%d" m line col);
  match Parser.parse_func "function f( {\n  x = 1;\n}" with
  | _ -> Alcotest.fail "parsed"
  | exception Parser.Parse_error (m, line, col) ->
    Alcotest.(check (triple string int int)) "parse error alone" ("expected parameter name (found {)", 1, 13) (m, line, col)

let test_precedence () =
  (* a + b * c parses as a + (b * c) *)
  match parse_e "a + b * c" with
  | Ast.Binary (Expr.Add, Ast.Var "a", Ast.Binary (Expr.Mul, Ast.Var "b", Ast.Var "c")) -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_comparison_level () =
  match parse_e "a + 1 < b * 2" with
  | Ast.Binary (Expr.Lt, Ast.Binary (Expr.Add, _, _), Ast.Binary (Expr.Mul, _, _)) -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_left_associativity () =
  match parse_e "a - b - c" with
  | Ast.Binary (Expr.Sub, Ast.Binary (Expr.Sub, Ast.Var "a", Ast.Var "b"), Ast.Var "c") -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parens_and_unary () =
  match parse_e "-(a + b) * !c" with
  | Ast.Binary (Expr.Mul, Ast.Unary (Expr.Neg, Ast.Binary (Expr.Add, _, _)), Ast.Unary (Expr.Not, Ast.Var "c"))
    -> ()
  | e -> Alcotest.failf "unexpected parse: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_function () =
  let f = Parser.parse_func "function f(a, b) { x = a + b; return x; }" in
  Alcotest.(check string) "name" "f" f.Ast.name;
  Alcotest.(check (list string)) "params" [ "a"; "b" ] f.Ast.params;
  Alcotest.(check int) "two statements" 2 (List.length f.Ast.body)

let test_no_params () =
  let f = Parser.parse_func "function g() { return 1; }" in
  Alcotest.(check (list string)) "no params" [] f.Ast.params

let test_control_flow () =
  let f =
    Parser.parse_func
      "function h(n) { s = 0; i = 0; while (i < n) { if (s > 10) { s = 0; } else { s = s + i; } i = i \
       + 1; } do { s = s - 1; } while (s > 0); print s; return s; }"
  in
  Alcotest.(check int) "statements" 6 (List.length f.Ast.body)

let test_parse_errors () =
  let fails src =
    try
      ignore (Parser.parse_func src);
      false
    with Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "missing semi" true (fails "function f() { x = 1 }");
  Alcotest.(check bool) "missing brace" true (fails "function f() { x = 1;");
  Alcotest.(check bool) "trailing" true (fails "function f() { return 1; } extra");
  Alcotest.(check bool) "keyword as statement" true (fails "function f() { else; }");
  Alcotest.(check bool) "empty expr" true (fails "function f() { x = ; }")

let test_error_position () =
  try
    ignore (Parser.parse_func "function f() {\n  x = ;\n}");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error (_, line, _) -> Alcotest.(check int) "line" 2 line

let test_roundtrip () =
  (* print ∘ parse is a fixpoint after one iteration *)
  let src = "function f(a, b) {\n  x = a + b * 2;\n  if (x > 0) {\n    print x;\n  }\n  return x;\n}" in
  let f1 = Parser.parse_func src in
  let printed = Ast.to_string [ f1 ] in
  let f2 = Parser.parse_func printed in
  Alcotest.(check string) "stable" printed (Ast.to_string [ f2 ])

let test_program_multi () =
  let p = Parser.parse_program "function f() { return 1; } function g() { return 2; }" in
  Alcotest.(check (list string)) "names" [ "f"; "g" ] (List.map (fun f -> f.Ast.name) p)

(* Fuzz: arbitrary byte soup must produce a clean error, never a crash or
   a hang. *)
let prop_parser_total =
  let gen =
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 120))
  in
  QCheck2.Test.make ~name:"parser is total on garbage" ~count:300 gen (fun src ->
      match Parser.parse_func src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

(* Fuzz with plausible tokens: higher chance of reaching deep parser
   states. *)
let prop_parser_total_tokens =
  let word =
    QCheck2.Gen.oneofl
      [
        "function"; "if"; "else"; "while"; "do"; "print"; "return"; "x"; "y"; "42"; "("; ")"; "{";
        "}"; ";"; ","; "="; "=="; "+"; "-"; "*"; "<"; "!";
      ]
  in
  let gen = QCheck2.Gen.(map (String.concat " ") (list_size (0 -- 40) word)) in
  QCheck2.Test.make ~name:"parser is total on token soup" ~count:300 gen (fun src ->
      match Parser.parse_func src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

let suite =
  [
    Alcotest.test_case "token stream" `Quick test_tokens;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_parser_total_tokens;
    Alcotest.test_case "token positions" `Quick test_token_positions;
    Alcotest.test_case "lex error position" `Quick test_lex_error;
    Alcotest.test_case "two-char operators" `Quick test_two_char_operators;
    Alcotest.test_case "precedence mul over add" `Quick test_precedence;
    Alcotest.test_case "comparison lowest" `Quick test_comparison_level;
    Alcotest.test_case "left associativity" `Quick test_left_associativity;
    Alcotest.test_case "parens and unary" `Quick test_parens_and_unary;
    Alcotest.test_case "function header" `Quick test_function;
    Alcotest.test_case "no params" `Quick test_no_params;
    Alcotest.test_case "control flow statements" `Quick test_control_flow;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "multi-function program" `Quick test_program_multi;
    Alcotest.test_case "cursor past the end" `Quick test_past_eof;
    Alcotest.test_case "a lex error beats an earlier parse error" `Quick test_lex_error_wins;
  ]
