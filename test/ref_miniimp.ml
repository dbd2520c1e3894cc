(* The MiniImp reader as it was before it emitted into the graph builder:
   a lexer that tokenizes the whole source into a list of spanned tokens
   first, a recursive-descent parser over that list, and a lowering that
   builds the graph through [Cfg.create], [add_block], [set_instrs] /
   [set_term], [remove_unreachable] and a cold [Validate.check_exn].
   Kept here, and only here, as the reference the pull-cursor reader must
   agree with: the same graph, or the same [Lexer.Lex_error] or
   [Parser.Parse_error] (message, line and column).  The three modules are
   the former [lib/ir/lexer.ml], [lib/ir/parser.ml] and
   [lib/cfg/lower.ml]; only their exceptions are the library's, so both
   readers' errors compare directly. *)

module Lexer = struct
  type token =
    | INT of int
    | IDENT of string
    | KW_FUNCTION
    | KW_IF
    | KW_ELSE
    | KW_WHILE
    | KW_DO
    | KW_PRINT
    | KW_RETURN
    | LPAREN
    | RPAREN
    | LBRACE
    | RBRACE
    | COMMA
    | SEMI
    | ASSIGN
    | PLUS
    | MINUS
    | STAR
    | SLASH
    | PERCENT
    | LT
    | LE
    | GT
    | GE
    | EQ
    | NE
    | BANG
    | EOF

  type spanned = { token : token; line : int; col : int }

  exception Lex_error = Lcm_ir.Lexer.Lex_error

  let keyword = function
    | "function" -> Some KW_FUNCTION
    | "if" -> Some KW_IF
    | "else" -> Some KW_ELSE
    | "while" -> Some KW_WHILE
    | "do" -> Some KW_DO
    | "print" -> Some KW_PRINT
    | "return" -> Some KW_RETURN
    | _ -> None

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let tokenize src =
    let n = String.length src in
    let line = ref 1 and col = ref 1 in
    let acc = ref [] in
    let emit tok l c = acc := { token = tok; line = l; col = c } :: !acc in
    let i = ref 0 in
    let advance () =
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    in
    while !i < n do
      let c = src.[!i] in
      let l0 = !line and c0 = !col in
      if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
      else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
        while !i < n && src.[!i] <> '\n' do
          advance ()
        done
      else if is_digit c then begin
        let start = !i in
        while !i < n && is_digit src.[!i] do
          advance ()
        done;
        let text = String.sub src start (!i - start) in
        match int_of_string_opt text with
        | Some v -> emit (INT v) l0 c0
        | None -> raise (Lex_error (Printf.sprintf "integer literal %s too large" text, l0, c0))
      end
      else if is_ident_start c then begin
        let start = !i in
        while !i < n && is_ident_char src.[!i] do
          advance ()
        done;
        let text = String.sub src start (!i - start) in
        match keyword text with
        | Some kw -> emit kw l0 c0
        | None -> emit (IDENT text) l0 c0
      end
      else begin
        let two tok = advance (); advance (); emit tok l0 c0 in
        let one tok = advance (); emit tok l0 c0 in
        let peek2 ch = !i + 1 < n && src.[!i + 1] = ch in
        match c with
        | '(' -> one LPAREN
        | ')' -> one RPAREN
        | '{' -> one LBRACE
        | '}' -> one RBRACE
        | ',' -> one COMMA
        | ';' -> one SEMI
        | '+' -> one PLUS
        | '-' -> one MINUS
        | '*' -> one STAR
        | '/' -> one SLASH
        | '%' -> one PERCENT
        | '<' -> if peek2 '=' then two LE else one LT
        | '>' -> if peek2 '=' then two GE else one GT
        | '=' -> if peek2 '=' then two EQ else one ASSIGN
        | '!' -> if peek2 '=' then two NE else one BANG
        | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, l0, c0))
      end
    done;
    emit EOF !line !col;
    List.rev !acc

  let pp_token ppf tok =
    let s =
      match tok with
      | INT n -> string_of_int n
      | IDENT s -> s
      | KW_FUNCTION -> "function"
      | KW_IF -> "if"
      | KW_ELSE -> "else"
      | KW_WHILE -> "while"
      | KW_DO -> "do"
      | KW_PRINT -> "print"
      | KW_RETURN -> "return"
      | LPAREN -> "("
      | RPAREN -> ")"
      | LBRACE -> "{"
      | RBRACE -> "}"
      | COMMA -> ","
      | SEMI -> ";"
      | ASSIGN -> "="
      | PLUS -> "+"
      | MINUS -> "-"
      | STAR -> "*"
      | SLASH -> "/"
      | PERCENT -> "%"
      | LT -> "<"
      | LE -> "<="
      | GT -> ">"
      | GE -> ">="
      | EQ -> "=="
      | NE -> "!="
      | BANG -> "!"
      | EOF -> "<eof>"
    in
    Format.pp_print_string ppf s
end

module Parser = struct
  module Expr = Lcm_ir.Expr
  module Ast = Lcm_ir.Ast

  exception Parse_error = Lcm_ir.Parser.Parse_error

  type state = { mutable tokens : Lexer.spanned list }

  let peek st =
    match st.tokens with
    | [] -> { Lexer.token = Lexer.EOF; line = 0; col = 0 }
    | t :: _ -> t

  let advance st =
    match st.tokens with
    | [] -> ()
    | _ :: rest -> st.tokens <- rest

  let fail st msg =
    let t = peek st in
    raise (Parse_error (Format.asprintf "%s (found %a)" msg Lexer.pp_token t.token, t.line, t.col))

  let expect st tok what =
    let t = peek st in
    if t.token = tok then advance st else fail st (Printf.sprintf "expected %s" what)

  let expect_ident st what =
    let t = peek st in
    match t.token with
    | Lexer.IDENT name ->
      advance st;
      name
    | _ -> fail st (Printf.sprintf "expected %s" what)

  let cmp_op = function
    | Lexer.LT -> Some Expr.Lt
    | Lexer.LE -> Some Expr.Le
    | Lexer.GT -> Some Expr.Gt
    | Lexer.GE -> Some Expr.Ge
    | Lexer.EQ -> Some Expr.Eq
    | Lexer.NE -> Some Expr.Ne
    | _ -> None

  let add_op = function
    | Lexer.PLUS -> Some Expr.Add
    | Lexer.MINUS -> Some Expr.Sub
    | _ -> None

  let mul_op = function
    | Lexer.STAR -> Some Expr.Mul
    | Lexer.SLASH -> Some Expr.Div
    | Lexer.PERCENT -> Some Expr.Mod
    | _ -> None

  let rec parse_expression st = parse_binary_level st cmp_op parse_add

  and parse_add st = parse_binary_level st add_op parse_mul

  and parse_mul st = parse_binary_level st mul_op parse_unary

  and parse_binary_level st classify next =
    let rec loop lhs =
      match classify (peek st).token with
      | Some op ->
        advance st;
        let rhs = next st in
        loop (Ast.Binary (op, lhs, rhs))
      | None -> lhs
    in
    loop (next st)

  and parse_unary st =
    match (peek st).token with
    | Lexer.MINUS ->
      advance st;
      Ast.Unary (Expr.Neg, parse_unary st)
    | Lexer.BANG ->
      advance st;
      Ast.Unary (Expr.Not, parse_unary st)
    | _ -> parse_atom st

  and parse_atom st =
    match (peek st).token with
    | Lexer.INT n ->
      advance st;
      Ast.Int n
    | Lexer.IDENT name ->
      advance st;
      Ast.Var name
    | Lexer.LPAREN ->
      advance st;
      let e = parse_expression st in
      expect st Lexer.RPAREN "')'";
      e
    | _ -> fail st "expected expression"

  let rec parse_stmt st =
    match (peek st).token with
    | Lexer.IDENT name ->
      advance st;
      expect st Lexer.ASSIGN "'='";
      let e = parse_expression st in
      expect st Lexer.SEMI "';'";
      Ast.Assign (name, e)
    | Lexer.KW_PRINT ->
      advance st;
      let e = parse_expression st in
      expect st Lexer.SEMI "';'";
      Ast.Print e
    | Lexer.KW_RETURN ->
      advance st;
      let e = parse_expression st in
      expect st Lexer.SEMI "';'";
      Ast.Return e
    | Lexer.KW_IF ->
      advance st;
      expect st Lexer.LPAREN "'('";
      let cond = parse_expression st in
      expect st Lexer.RPAREN "')'";
      let then_branch = parse_block st in
      let else_branch =
        if (peek st).token = Lexer.KW_ELSE then begin
          advance st;
          parse_block st
        end
        else []
      in
      Ast.If (cond, then_branch, else_branch)
    | Lexer.KW_WHILE ->
      advance st;
      expect st Lexer.LPAREN "'('";
      let cond = parse_expression st in
      expect st Lexer.RPAREN "')'";
      let body = parse_block st in
      Ast.While (cond, body)
    | Lexer.KW_DO ->
      advance st;
      let body = parse_block st in
      expect st Lexer.KW_WHILE "'while'";
      expect st Lexer.LPAREN "'('";
      let cond = parse_expression st in
      expect st Lexer.RPAREN "')'";
      expect st Lexer.SEMI "';'";
      Ast.Do_while (body, cond)
    | _ -> fail st "expected statement"

  and parse_block st =
    expect st Lexer.LBRACE "'{'";
    let rec loop acc =
      if (peek st).token = Lexer.RBRACE then begin
        advance st;
        List.rev acc
      end
      else loop (parse_stmt st :: acc)
    in
    loop []

  let parse_func_decl st =
    expect st Lexer.KW_FUNCTION "'function'";
    let name = expect_ident st "function name" in
    expect st Lexer.LPAREN "'('";
    let params =
      if (peek st).token = Lexer.RPAREN then []
      else begin
        let rec loop acc =
          let p = expect_ident st "parameter name" in
          if (peek st).token = Lexer.COMMA then begin
            advance st;
            loop (p :: acc)
          end
          else List.rev (p :: acc)
        in
        loop []
      end
    in
    expect st Lexer.RPAREN "')'";
    let body = parse_block st in
    { Ast.name; params; body }

  let make_state src = { tokens = Lexer.tokenize src }

  let parse_program src =
    let st = make_state src in
    let rec loop acc =
      if (peek st).token = Lexer.EOF then List.rev acc else loop (parse_func_decl st :: acc)
    in
    let funcs = loop [] in
    if funcs = [] then fail st "expected at least one function";
    funcs

  let parse_func src =
    let st = make_state src in
    let f = parse_func_decl st in
    if (peek st).token <> Lexer.EOF then fail st "trailing input after function";
    f

  let parse_expr src =
    let st = make_state src in
    let e = parse_expression st in
    if (peek st).token <> Lexer.EOF then fail st "trailing input after expression";
    e
end

module Lower = struct
  module Cfg = Lcm_cfg.Cfg
  module Label = Lcm_cfg.Label
  module Validate = Lcm_cfg.Validate

  (* The former [Ast.stmt_vars], which only this lowering read. *)
  module Ast = struct
    include Lcm_ir.Ast

    let rec expr_vars = function
      | Int _ -> []
      | Var v -> [ v ]
      | Unary (_, e) -> expr_vars e
      | Binary (_, a, b) -> expr_vars a @ expr_vars b

    let rec stmt_list_vars stmts = List.concat_map stmt_vars_one stmts

    and stmt_vars_one = function
      | Assign (_, e) -> expr_vars e
      | If (c, t, f) -> expr_vars c @ stmt_list_vars t @ stmt_list_vars f
      | While (c, b) -> expr_vars c @ stmt_list_vars b
      | Do_while (b, c) -> stmt_list_vars b @ expr_vars c
      | Print e -> expr_vars e
      | Return e -> expr_vars e

    let stmt_vars stmts = List.sort_uniq String.compare (stmt_list_vars stmts)
  end

  module Expr = Lcm_ir.Expr
  module Instr = Lcm_ir.Instr

  let return_var = "_ret"

  (* Mutable lowering state: the graph under construction, the block being
     filled (with its instructions accumulated in reverse), and a fresh-name
     supply that cannot collide with source variables. *)
  type state = {
    graph : Cfg.t;
    mutable current : Label.t option;
    mutable pending : Instr.t list;  (* reversed *)
    temp_prefix : string;
    mutable next_temp : int;
  }

  let fresh_temp st =
    let v = Printf.sprintf "%s%d" st.temp_prefix st.next_temp in
    st.next_temp <- st.next_temp + 1;
    v

  let emit st i = st.pending <- i :: st.pending

  (* Close the current block with [term], flushing pending instructions. *)
  let seal st term =
    match st.current with
    | None -> ()
    | Some l ->
      Cfg.set_instrs st.graph l (List.rev st.pending);
      Cfg.set_term st.graph l term;
      st.pending <- [];
      st.current <- None

  (* Start filling a fresh block and return its label. *)
  let start_block st =
    assert (st.current = None);
    let l = Cfg.add_block st.graph ~instrs:[] ~term:Cfg.Halt in
    st.current <- Some l;
    l

  (* Ensure some block is open (after a Return the rest of the statement list
     is unreachable; we lower it into a dangling block and let
     [remove_unreachable] discard it). *)
  let ensure_open st = if st.current = None then ignore (start_block st)

  let rec flatten_operand st (e : Ast.expr) : Expr.operand =
    match e with
    | Ast.Int n -> Expr.Const n
    | Ast.Var v -> Expr.Var v
    | Ast.Unary _ | Ast.Binary _ ->
      let rhs = flatten_rhs st e in
      let t = fresh_temp st in
      emit st (Instr.Assign (t, rhs));
      Expr.Var t

  (* Flatten [e] into an instruction right-hand side, materializing
     sub-expressions as temporaries. *)
  and flatten_rhs st (e : Ast.expr) : Expr.t =
    match e with
    | Ast.Int n -> Expr.Atom (Expr.Const n)
    | Ast.Var v -> Expr.Atom (Expr.Var v)
    | Ast.Unary (op, a) -> Expr.Unary (op, flatten_operand st a)
    | Ast.Binary (op, a, b) ->
      let oa = flatten_operand st a in
      let ob = flatten_operand st b in
      Expr.Binary (op, oa, ob)

  let rec lower_stmts st (stmts : Ast.stmt list) =
    List.iter (lower_stmt st) stmts

  and lower_stmt st (s : Ast.stmt) =
    ensure_open st;
    match s with
    | Ast.Assign (v, e) -> emit st (Instr.Assign (v, flatten_rhs st e))
    | Ast.Print e ->
      let a = flatten_operand st e in
      emit st (Instr.Print a)
    | Ast.Return e ->
      let rhs = flatten_rhs st e in
      emit st (Instr.Assign (return_var, rhs));
      seal st (Cfg.Goto (Cfg.exit_label st.graph))
    | Ast.If (cond, then_branch, else_branch) ->
      let c = flatten_operand st cond in
      let here = st.current in
      seal st Cfg.Halt;
      let then_entry = start_block st in
      lower_stmts st then_branch;
      let then_tail = st.current in
      seal st Cfg.Halt;
      let else_entry = start_block st in
      lower_stmts st else_branch;
      let else_tail = st.current in
      seal st Cfg.Halt;
      let join = start_block st in
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Branch (c, then_entry, else_entry))) here;
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Goto join)) then_tail;
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Goto join)) else_tail
    | Ast.While (cond, body) ->
      let before = st.current in
      seal st Cfg.Halt;
      let header = start_block st in
      let c = flatten_operand st cond in
      let cond_tail = st.current in
      seal st Cfg.Halt;
      let body_entry = start_block st in
      lower_stmts st body;
      let body_tail = st.current in
      seal st Cfg.Halt;
      let after = start_block st in
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Goto header)) before;
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Branch (c, body_entry, after))) cond_tail;
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Goto header)) body_tail
    | Ast.Do_while (body, cond) ->
      let before = st.current in
      seal st Cfg.Halt;
      let body_entry = start_block st in
      lower_stmts st body;
      ensure_open st;
      let c = flatten_operand st cond in
      let body_tail = st.current in
      seal st Cfg.Halt;
      let after = start_block st in
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Goto body_entry)) before;
      Option.iter (fun l -> Cfg.set_term st.graph l (Cfg.Branch (c, body_entry, after))) body_tail

  let temp_prefix_for (f : Ast.func) =
    Lcm_support.Fresh.prefix ~existing:(Ast.stmt_vars f.Ast.body @ f.Ast.params) "_t"

  let func (f : Ast.func) =
    let graph = Cfg.create ~name:f.Ast.name () in
    let st = { graph; current = None; pending = []; temp_prefix = temp_prefix_for f; next_temp = 0 } in
    let first = start_block st in
    Cfg.set_term graph (Cfg.entry graph) (Cfg.Goto first);
    lower_stmts st f.Ast.body;
    (* A function that falls off the end returns 0. *)
    (match st.current with
    | Some _ ->
      emit st (Instr.Assign (return_var, Expr.Atom (Expr.Const 0)));
      seal st (Cfg.Goto (Cfg.exit_label graph))
    | None -> ());
    Cfg.remove_unreachable graph;
    Validate.check_exn graph;
    graph

  let program (p : Ast.program) = List.map (fun f -> (f.Ast.name, func f)) p
  let parse_and_lower_func src = func (Parser.parse_func src)
  let parse_and_lower src = program (Parser.parse_program src)
end
