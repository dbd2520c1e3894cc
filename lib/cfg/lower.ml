module Ast = Lcm_ir.Ast
module Expr = Lcm_ir.Expr
module Parser = Lcm_ir.Parser

let return_var = "_ret"

(* Lowering state: the builder, the block being filled (-1: none, after a
   block is closed), and a fresh-name supply that cannot collide with
   source variables. *)
type state = {
  b : Build.t;
  mutable current : Label.t;
  temp_prefix : string;
  mutable next_temp : int;
}

let var st v = Build.var_of_name st.b v

let fresh_temp st =
  let v = var st (st.temp_prefix ^ string_of_int st.next_temp) in
  st.next_temp <- st.next_temp + 1;
  v

(* Close the current block with [term]; its instructions stay with the
   builder until the next block starts. *)
let seal st term =
  if st.current >= 0 then begin
    Build.set_term st.b st.current term;
    st.current <- -1
  end

(* Start filling a fresh block and return its label. *)
let start_block st =
  assert (st.current < 0);
  let l = Build.new_block st.b in
  Build.start st.b l;
  st.current <- l;
  l

(* Ensure some block is open (after a Return the rest of the statement list
   is unreachable; we lower it into a dangling block and let the builder's
   pruning discard it). *)
let ensure_open st = if st.current < 0 then ignore (start_block st)

let dest st dst = if dst >= 0 then dst else fresh_temp st

(* The operand code of [e], a compound [e] materialized into a fresh
   temporary. *)
let rec operand st (e : Ast.expr) =
  match e with
  | Ast.Int n -> Build.const st.b n
  | Ast.Var v -> Vars.var_code (var st v)
  | Ast.Unary _ | Ast.Binary _ -> Vars.var_code (assign st (-1) e)

(* Emit [dst := e] with [e]'s sub-expressions materialized as temporaries
   first; [dst] -1 is a fresh temporary, numbered after theirs.  Returns
   [dst]. *)
and assign st dst (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Var _ ->
    let a = operand st e in
    let d = dest st dst in
    Build.copy st.b d a;
    d
  | Ast.Unary (op, a) ->
    let a = operand st a in
    let d = dest st dst in
    Build.unary st.b d op a;
    d
  | Ast.Binary (op, a, c) ->
    let a = operand st a in
    let c = operand st c in
    let d = dest st dst in
    Build.binary st.b d op a c;
    d

let condition st e = Build.operand st.b (operand st e)
let goto st l tail = if tail >= 0 then Build.set_term st.b tail (Cfg.Goto l)

(* A recursion rather than [List.iter (lower_stmt st)], which would
   allocate a closure per statement list. *)
let rec lower_stmts st (stmts : Ast.stmt list) =
  match stmts with
  | [] -> ()
  | s :: rest ->
    lower_stmt st s;
    lower_stmts st rest

and lower_stmt st (s : Ast.stmt) =
  ensure_open st;
  match s with
  | Ast.Assign (v, e) -> ignore (assign st (var st v) e)
  | Ast.Print e -> Build.print st.b (operand st e)
  | Ast.Return e ->
    ignore (assign st (var st return_var) e);
    seal st (Cfg.Goto Build.exit_label)
  | Ast.If (cond, then_branch, else_branch) ->
    let c = condition st cond in
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
    Build.set_term st.b here (Cfg.Branch (c, then_entry, else_entry));
    goto st join then_tail;
    goto st join else_tail
  | Ast.While (cond, body) ->
    let before = st.current in
    seal st Cfg.Halt;
    let header = start_block st in
    let c = condition st cond in
    let cond_tail = st.current in
    seal st Cfg.Halt;
    let body_entry = start_block st in
    lower_stmts st body;
    let body_tail = st.current in
    seal st Cfg.Halt;
    let after = start_block st in
    Build.set_term st.b before (Cfg.Goto header);
    Build.set_term st.b cond_tail (Cfg.Branch (c, body_entry, after));
    goto st header body_tail
  | Ast.Do_while (body, cond) ->
    let before = st.current in
    seal st Cfg.Halt;
    let body_entry = start_block st in
    lower_stmts st body;
    ensure_open st;
    let c = condition st cond in
    let body_tail = st.current in
    seal st Cfg.Halt;
    let after = start_block st in
    Build.set_term st.b before (Cfg.Goto body_entry);
    Build.set_term st.b body_tail (Cfg.Branch (c, body_entry, after))

(* The temporaries' prefix: ["_t"] extended until no parameter and no
   variable the body reads starts with it. *)
let temp_seed = "_t"

let rec expr_need need (e : Ast.expr) =
  match e with
  | Ast.Int _ -> need
  | Ast.Var v -> max need (Lcm_support.Fresh.run temp_seed v)
  | Ast.Unary (_, a) -> expr_need need a
  | Ast.Binary (_, a, b) -> expr_need (expr_need need a) b

let rec stmts_need need stmts = List.fold_left stmt_need need stmts

and stmt_need need (s : Ast.stmt) =
  match s with
  | Ast.Assign (_, e) | Ast.Print e | Ast.Return e -> expr_need need e
  | Ast.If (c, t, f) -> stmts_need (stmts_need (expr_need need c) t) f
  | Ast.While (c, b) -> stmts_need (expr_need need c) b
  | Ast.Do_while (b, c) -> expr_need (stmts_need need b) c

let temp_prefix_for (f : Ast.func) =
  let need = List.fold_left (fun need p -> max need (Lcm_support.Fresh.run temp_seed p)) 0 f.Ast.params in
  Lcm_support.Fresh.extend temp_seed (stmts_need need f.Ast.body)

(* [hint]: the length of the source [f] was read from, to size the
   builder's tables. *)
let lower ?(hint = 0) (f : Ast.func) =
  let b = Build.create ~blocks:(hint / 16) ~vars:(hint / 64) () in
  let st = { b; current = -1; temp_prefix = temp_prefix_for f; next_temp = 0 } in
  let first = start_block st in
  Build.set_term b Build.entry (Cfg.Goto first);
  lower_stmts st f.Ast.body;
  (* A function that falls off the end returns 0. *)
  if st.current >= 0 then begin
    Build.copy b (var st return_var) (Build.const b 0);
    seal st (Cfg.Goto Build.exit_label)
  end;
  match Build.finish b ~name:f.Ast.name ~prune:true with
  | Ok g -> g
  | Error issues -> failwith (Printf.sprintf "Cfg validation failed: %s" (String.concat "; " issues))

let func f = lower f
let parse_and_lower_func src = lower ~hint:(String.length src) (Parser.parse_func src)

(* Only the first function is sized from the source: most often the
   only one. *)
let parse_and_lower src =
  List.mapi
    (fun i f -> (f.Ast.name, lower ~hint:(if i = 0 then String.length src else 0) f))
    (Parser.parse_program src)
