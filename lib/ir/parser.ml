exception Parse_error of string * int * int

module L = Lexer

let fail (c : L.t) msg = raise (Parse_error (msg ^ " (found " ^ L.describe c ^ ")", c.line, c.col))
let expect (c : L.t) tok what = if c.token = tok then L.advance c else fail c ("expected " ^ what)

let expect_ident (c : L.t) what =
  if c.token <> L.IDENT then fail c ("expected " ^ what);
  let name = L.ident c in
  L.advance c;
  name

let cmp_op = function
  | L.LT -> Some Expr.Lt
  | L.LE -> Some Expr.Le
  | L.GT -> Some Expr.Gt
  | L.GE -> Some Expr.Ge
  | L.EQ -> Some Expr.Eq
  | L.NE -> Some Expr.Ne
  | _ -> None

let add_op = function
  | L.PLUS -> Some Expr.Add
  | L.MINUS -> Some Expr.Sub
  | _ -> None

let mul_op = function
  | L.STAR -> Some Expr.Mul
  | L.SLASH -> Some Expr.Div
  | L.PERCENT -> Some Expr.Mod
  | _ -> None

(* One function per precedence level and one per level's left-associative
   tail: no closure is allocated per level. *)
let rec parse_expression c = cmp_tail c (parse_add c)

and cmp_tail (c : L.t) lhs =
  match cmp_op c.token with
  | Some op ->
    L.advance c;
    cmp_tail c (Ast.Binary (op, lhs, parse_add c))
  | None -> lhs

and parse_add c = add_tail c (parse_mul c)

and add_tail (c : L.t) lhs =
  match add_op c.token with
  | Some op ->
    L.advance c;
    add_tail c (Ast.Binary (op, lhs, parse_mul c))
  | None -> lhs

and parse_mul c = mul_tail c (parse_unary c)

and mul_tail (c : L.t) lhs =
  match mul_op c.token with
  | Some op ->
    L.advance c;
    mul_tail c (Ast.Binary (op, lhs, parse_unary c))
  | None -> lhs

and parse_unary (c : L.t) =
  match c.token with
  | L.MINUS ->
    L.advance c;
    Ast.Unary (Expr.Neg, parse_unary c)
  | L.BANG ->
    L.advance c;
    Ast.Unary (Expr.Not, parse_unary c)
  | _ -> parse_atom c

and parse_atom (c : L.t) =
  match c.token with
  | L.INT ->
    let n = c.value in
    L.advance c;
    Ast.Int n
  | L.IDENT ->
    let name = L.ident c in
    L.advance c;
    Ast.Var name
  | L.LPAREN ->
    L.advance c;
    let e = parse_expression c in
    expect c L.RPAREN "')'";
    e
  | _ -> fail c "expected expression"

(* [e] followed by a ';'. *)
let terminated c =
  let e = parse_expression c in
  expect c L.SEMI "';'";
  e

let condition c =
  expect c L.LPAREN "'('";
  let e = parse_expression c in
  expect c L.RPAREN "')'";
  e

let rec parse_stmt (c : L.t) =
  match c.token with
  | L.IDENT ->
    let name = L.ident c in
    L.advance c;
    expect c L.ASSIGN "'='";
    Ast.Assign (name, terminated c)
  | L.KW_PRINT ->
    L.advance c;
    Ast.Print (terminated c)
  | L.KW_RETURN ->
    L.advance c;
    Ast.Return (terminated c)
  | L.KW_IF ->
    L.advance c;
    let cond = condition c in
    let then_branch = parse_block c in
    let else_branch =
      if c.token = L.KW_ELSE then begin
        L.advance c;
        parse_block c
      end
      else []
    in
    Ast.If (cond, then_branch, else_branch)
  | L.KW_WHILE ->
    L.advance c;
    let cond = condition c in
    Ast.While (cond, parse_block c)
  | L.KW_DO ->
    L.advance c;
    let body = parse_block c in
    expect c L.KW_WHILE "'while'";
    let cond = condition c in
    expect c L.SEMI "';'";
    Ast.Do_while (body, cond)
  | _ -> fail c "expected statement"

and parse_block c =
  expect c L.LBRACE "'{'";
  stmts c []

and stmts (c : L.t) acc =
  if c.token = L.RBRACE then begin
    L.advance c;
    List.rev acc
  end
  else stmts c (parse_stmt c :: acc)

let rec params (c : L.t) acc =
  let p = expect_ident c "parameter name" in
  if c.token = L.COMMA then begin
    L.advance c;
    params c (p :: acc)
  end
  else List.rev (p :: acc)

let parse_func_decl (c : L.t) =
  expect c L.KW_FUNCTION "'function'";
  let name = expect_ident c "function name" in
  expect c L.LPAREN "'('";
  let params = if c.token = L.RPAREN then [] else params c [] in
  expect c L.RPAREN "')'";
  let body = parse_block c in
  { Ast.name; params; body }

(* A syntax error loses to a lex error anywhere in the source, which is
   what reading every token before parsing gave. *)
let run src parse =
  let c = L.create src in
  try parse c with
  | Parse_error _ as e ->
    L.drain c;
    raise e

let at_eof (c : L.t) what = if c.token <> L.EOF then fail c ("trailing input after " ^ what)

let parse_program src =
  run src (fun c ->
      let rec loop acc = if c.token = L.EOF then List.rev acc else loop (parse_func_decl c :: acc) in
      let funcs = loop [] in
      if funcs = [] then fail c "expected at least one function";
      funcs)

let parse_func src =
  run src (fun c ->
      let f = parse_func_decl c in
      at_eof c "function";
      f)

let parse_expr src =
  run src (fun c ->
      let e = parse_expression c in
      at_eof c "expression";
      e)
