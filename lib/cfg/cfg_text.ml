module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

exception Parse_error of string * int

let fail line fmt = Format.kasprintf (fun m -> raise (Parse_error (m, line))) fmt

(* '.' admits frontend-generated names (Bril emitters commonly mint
   [v.1]-style temporaries); a word of ident chars starting with a digit
   is still rejected by [parse_operand]. *)
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.'

(* Split a line into whitespace-separated words. *)
let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_label line w =
  let body =
    if String.length w >= 2 && w.[0] = 'B' then String.sub w 1 (String.length w - 1)
    else fail line "expected a label like B3, found %S" w
  in
  match int_of_string_opt body with
  | Some n when n >= 0 -> n
  | Some _ | None -> fail line "expected a label like B3, found %S" w

let parse_operand line w =
  match int_of_string_opt w with
  | Some n -> Expr.Const n
  | None ->
    if w <> "" && String.for_all is_ident_char w && not (w.[0] >= '0' && w.[0] <= '9') then Expr.Var w
    else fail line "expected a variable or integer, found %S" w

let binop_of_symbol = function
  | "+" -> Some Expr.Add
  | "-" -> Some Expr.Sub
  | "*" -> Some Expr.Mul
  | "/" -> Some Expr.Div
  | "%" -> Some Expr.Mod
  | "<" -> Some Expr.Lt
  | "<=" -> Some Expr.Le
  | ">" -> Some Expr.Gt
  | ">=" -> Some Expr.Ge
  | "==" -> Some Expr.Eq
  | "!=" -> Some Expr.Ne
  | "&&" -> Some Expr.And
  | "||" -> Some Expr.Or
  | _ -> None

(* Unary applications print without a space: "-a" or "!x". *)
let parse_unary_word line w =
  if String.length w >= 2 && (w.[0] = '-' || w.[0] = '!') then begin
    let op = if w.[0] = '-' then Expr.Neg else Expr.Not in
    let rest = String.sub w 1 (String.length w - 1) in
    (* "-5" prints as the constant -5; treat it as an atom. *)
    match (op, int_of_string_opt rest) with
    | Expr.Neg, Some n -> Some (Expr.Atom (Expr.Const (-n)))
    | _, _ -> Some (Expr.Unary (op, parse_operand line rest))
  end
  else None

let parse_rhs line ws =
  match ws with
  | [ single ] ->
    (match parse_unary_word line single with
    | Some e -> e
    | None -> Expr.Atom (parse_operand line single))
  | [ a; op; b ] ->
    (match binop_of_symbol op with
    | Some op -> Expr.Binary (op, parse_operand line a, parse_operand line b)
    | None -> fail line "unknown operator %S" op)
  | _ -> fail line "cannot parse expression %S" (String.concat " " ws)

let parse_var line w =
  match parse_operand line w with
  | Expr.Var v -> v
  | Expr.Const _ -> fail line "expected a variable, found %S" w

(* Opaque effect lines mirror [Instr.pp]:
     do OP [@func ...] [operand ...] [-> dest type]
   The type token is opaque to this parser (any space-free word, e.g.
   [int] or [ptr<int>]); it only has to round-trip. *)
let parse_effect line op rest =
  if op = "" || not (String.for_all is_ident_char op) then
    fail line "expected an effect op name, found %S" op;
  let rec split_funcs acc = function
    | w :: ws when String.length w > 1 && w.[0] = '@' ->
      split_funcs (String.sub w 1 (String.length w - 1) :: acc) ws
    | ws -> (List.rev acc, ws)
  in
  let funcs, rest = split_funcs [] rest in
  let rec split_args acc = function
    | [] -> (List.rev acc, None)
    | [ "->"; dest; ty ] -> (List.rev acc, Some (parse_var line dest, ty))
    | "->" :: _ -> fail line "expected \"-> dest type\" at the end of a do line"
    | w :: ws -> split_args (parse_operand line w :: acc) ws
  in
  let args, dest = split_args [] rest in
  Instr.Effect { Instr.eff_op = op; eff_dest = dest; eff_args = args; eff_funcs = funcs }

let parse_instr line ws =
  match ws with
  | "print" :: rest ->
    (match rest with
    | [ a ] -> Instr.Print (parse_operand line a)
    | _ -> fail line "print takes one operand")
  | v :: ":=" :: rest -> Instr.Assign (v, parse_rhs line rest)
  | "do" :: op :: rest -> parse_effect line op rest
  | _ -> fail line "cannot parse instruction %S" (String.concat " " ws)

type parsed_term =
  | T_goto of int
  | T_branch of Expr.operand * int * int
  | T_halt

let parse_term line ws =
  match ws with
  | [ "halt" ] -> Some T_halt
  | [ "goto"; l ] -> Some (T_goto (parse_label line l))
  | [ "if"; c; "then"; a; "else"; b ] ->
    Some (T_branch (parse_operand line c, parse_label line a, parse_label line b))
  | _ -> None

(* Line-level entry points for the serving [delta] op: a patch edits a
   retained graph with the same surface syntax as whole-graph documents,
   one instruction or terminator per string.  Errors report line 0 (the
   caller knows which edit it fed in). *)
let parse_instr_line s = parse_instr 0 (words (String.trim s))
let parse_term_line s = parse_term 0 (words (String.trim s))

(* ---- the reader ----

   One pass over the text with a cursor: each line is trimmed and cut
   into words in place (spans of the text, split on spaces as
   [split_on_char ' '] splits them), and the common shapes — terminators,
   [print x], [v := x], [v := x op y], [v := -x] with plain names and
   decimal literals — are matched on the spans and emitted straight into
   the graph builder, every name interned from its span.  Any other line
   (an effect, an unusual literal, a malformed line) takes the word-list
   parser above on its allocated words, so it reads, and fails, exactly
   as that parser does.  Block-level checks are recorded as the blocks
   appear and reported after the last line, in the order the checks have
   always run: the last block's terminator, the header, the first two
   blocks, duplicates, then each block's targets and halting in order of
   appearance, then the graph's structure. *)

type block_acc = {
  text_label : int;
  label : Label.t;
  mutable term : parsed_term option;
  first_line : int;
}

let is_trim c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* The words of the current line: [nw] spans of [src]. *)
type cursor = {
  src : string;
  mutable at : int array;
  mutable len : int array;
  mutable nw : int;
}

let word c i = String.sub c.src c.at.(i) c.len.(i)
let words_of c = List.init c.nw (word c)

let rec same src at s j n = j = n || (String.unsafe_get src (at + j) = String.unsafe_get s j && same src at s (j + 1) n)
let word_is c i s = c.len.(i) = String.length s && same c.src c.at.(i) s 0 c.len.(i)

let split c a z =
  c.nw <- 0;
  let i = ref a in
  while !i < z do
    if String.unsafe_get c.src !i = ' ' then incr i
    else begin
      let w0 = !i in
      while !i < z && String.unsafe_get c.src !i <> ' ' do
        incr i
      done;
      if c.nw = Array.length c.at then begin
        c.at <- Array.append c.at c.at;
        c.len <- Array.append c.len c.len
      end;
      c.at.(c.nw) <- w0;
      c.len.(c.nw) <- !i - w0;
      c.nw <- c.nw + 1
    end
  done

let is_digit ch = ch >= '0' && ch <= '9'

(* The value of a span of at most 18 decimal digits; -1 for any other
   span (whose reading is left to [int_of_string_opt]). *)
let rec digits_from s i stop n =
  if i = stop then n
  else
    let ch = String.unsafe_get s i in
    if is_digit ch then digits_from s (i + 1) stop ((10 * n) + Char.code ch - 48) else -1

let digits s at len = if len = 0 || len > 18 then -1 else digits_from s at (at + len) 0

let rec all_ident s i stop = i = stop || (is_ident_char (String.unsafe_get s i) && all_ident s (i + 1) stop)
let is_name s at len = len > 0 && (not (is_digit (String.unsafe_get s at))) && all_ident s at (at + len)

(* The operand code of a plain name or decimal literal at [at, at + len);
   -1 when the span is anything else. *)
let operand_code b s at len =
  let n = digits s at len in
  if n >= 0 then Build.const b n
  else if is_name s at len then Vars.var_code (Build.var b s at len)
  else -1

let span_label s at len = if len >= 2 && String.unsafe_get s at = 'B' then digits s (at + 1) (len - 1) else -1

let binop_of_span s at len =
  if len = 1 then
    match String.unsafe_get s at with
    | '+' -> Some Expr.Add
    | '-' -> Some Expr.Sub
    | '*' -> Some Expr.Mul
    | '/' -> Some Expr.Div
    | '%' -> Some Expr.Mod
    | '<' -> Some Expr.Lt
    | '>' -> Some Expr.Gt
    | _ -> None
  else if len = 2 then binop_of_symbol (String.sub s at 2)
  else None

(* A line the fast path reads: emitted, or a terminator returned.
   [None] means "not a fast-path line": nothing was emitted. *)
type fast =
  | F_instr
  | F_term of parsed_term
  | F_other

let code b c i = operand_code b c.src c.at.(i) c.len.(i)
let label c i = span_label c.src c.at.(i) c.len.(i)
let dest b c = Build.var b c.src c.at.(0) c.len.(0)

(* [v := w] for the single word [w]: "-5" is the constant -5; "-x" and
   "!x" apply an operator. *)
let fast_rhs b c =
  let s = c.src and w = c.at.(2) and n = c.len.(2) in
  let ch = String.unsafe_get s w in
  if n >= 2 && (ch = '-' || ch = '!') then begin
    let k = digits s (w + 1) (n - 1) in
    if ch = '-' && k >= 0 then begin
      Build.copy b (dest b c) (Build.const b (-k));
      F_instr
    end
    else if is_name s (w + 1) (n - 1) then begin
      let a = Vars.var_code (Build.var b s (w + 1) (n - 1)) in
      Build.unary b (dest b c) (if ch = '-' then Expr.Neg else Expr.Not) a;
      F_instr
    end
    else F_other
  end
  else begin
    let a = code b c 2 in
    if a >= 0 then begin
      Build.copy b (dest b c) a;
      F_instr
    end
    else F_other
  end

let fast_line b c =
  match c.nw with
  | 1 when word_is c 0 "halt" -> F_term T_halt
  | 2 when word_is c 0 "goto" ->
    let l = label c 1 in
    if l >= 0 then F_term (T_goto l) else F_other
  | 6 when word_is c 0 "if" && word_is c 2 "then" && word_is c 4 "else" ->
    let x = label c 3 and y = label c 5 in
    let cond = if x >= 0 && y >= 0 then code b c 1 else -1 in
    if cond >= 0 then F_term (T_branch (Build.operand b cond, x, y)) else F_other
  | 2 when word_is c 0 "print" ->
    let a = code b c 1 in
    if a >= 0 then begin
      Build.print b a;
      F_instr
    end
    else F_other
  | 3 when word_is c 1 ":=" && not (word_is c 0 "print") -> fast_rhs b c
  | 5 when word_is c 1 ":=" && not (word_is c 0 "print") -> (
    match binop_of_span c.src c.at.(3) c.len.(3) with
    | None -> F_other
    | Some op ->
      let x = code b c 2 and y = code b c 4 in
      if x >= 0 && y >= 0 then begin
        Build.binary b (dest b c) op x y;
        F_instr
      end
      else F_other)
  | _ -> F_other

(* An instruction from the word-list parser, emitted with its names
   interned. *)
let emit b i =
  let code = function
    | Expr.Var v -> Vars.var_code (Build.var_of_name b v)
    | Expr.Const n -> Build.const b n
  in
  match i with
  | Instr.Assign (v, Expr.Atom a) -> Build.copy b (Build.var_of_name b v) (code a)
  | Instr.Assign (v, Expr.Unary (op, a)) -> Build.unary b (Build.var_of_name b v) op (code a)
  | Instr.Assign (v, Expr.Binary (op, x, y)) ->
    let x = code x in
    Build.binary b (Build.var_of_name b v) op x (code y)
  | Instr.Print a -> Build.print b (code a)
  | Instr.Effect e ->
    Build.effect b e.Instr.eff_op
      (Option.map (fun (v, ty) -> (Build.var_of_name b v, ty)) e.Instr.eff_dest)
      (List.map code e.Instr.eff_args) e.Instr.eff_funcs

let rec line_end s i n = if i = n || String.unsafe_get s i = '\n' then i else line_end s (i + 1) n

let parse text =
  let b = Build.create ~blocks:(String.length text / 40) ~vars:(String.length text / 100) () in
  let c = { src = text; at = Array.make 8 0; len = Array.make 8 0; nw = 0 } in
  let n = String.length text in
  let header = ref None in
  let blocks_rev = ref [] and nblocks = ref 0 in
  let first_two = ref [] in
  let first_dup = ref None in
  let mapping = Hashtbl.create 64 in
  let current = ref None in
  let finish () =
    match !current with
    | None -> ()
    | Some blk ->
      if blk.term = None then fail blk.first_line "block B%d has no terminator" blk.text_label;
      current := None
  in
  (* A repeated label is recorded (the first in order of appearance) and
     read into a block of its own, so the rest of the text still reads
     and fails as it always has; B0 and B1 are repeats from their second
     appearance on. *)
  let seen_fixed = [| false; false |] in
  let duplicate lineno t =
    if !first_dup = None then first_dup := Some (lineno, t);
    Build.new_block b
  in
  let open_block lineno text_label =
    let label =
      match text_label with
      | (0 | 1) as t when seen_fixed.(t) -> duplicate lineno t
      | (0 | 1) as t ->
        seen_fixed.(t) <- true;
        if t = 0 then Build.entry else Build.exit_label
      | t ->
        if Hashtbl.mem mapping t then duplicate lineno t
        else begin
          let l = Build.new_block b in
          Hashtbl.replace mapping t l;
          l
        end
    in
    Build.start b label;
    let blk = { text_label; label; term = None; first_line = lineno } in
    if !nblocks < 2 then first_two := text_label :: !first_two;
    incr nblocks;
    blocks_rev := blk :: !blocks_rev;
    current := Some blk
  in
  let line lineno a z =
    (* [a, z): the line, trimmed *)
    let len = z - a in
    if len = 0 then ()
    else if len >= 4 && same text a "cfg " 0 4 then begin
      if !header <> None then fail lineno "duplicate cfg header";
      (* "cfg <name> (entry B0, exit B1)" *)
      split c a z;
      if c.nw < 2 then fail lineno "malformed cfg header";
      header := Some (word c 1)
    end
    else if len >= 2 && String.unsafe_get text a = 'B' && String.unsafe_get text (z - 1) = ':' then begin
      finish ();
      let l = span_label text a (len - 1) in
      let l = if l >= 0 then l else parse_label lineno (String.sub text a (len - 1)) in
      open_block lineno l
    end
    else begin
      match !current with
      | None -> fail lineno "content outside a block: %S" (String.sub text a len)
      | Some blk ->
        if blk.term <> None then fail lineno "block B%d continues after its terminator" blk.text_label;
        split c a z;
        (match fast_line b c with
        | F_instr -> ()
        | F_term t -> blk.term <- Some t
        | F_other ->
          let ws = words_of c in
          (match parse_term lineno ws with
          | Some t -> blk.term <- Some t
          | None -> emit b (parse_instr lineno ws)))
    end
  in
  let rec lines lineno i =
    if i <= n then begin
      let j = line_end text i n in
      let a = ref i and z = ref j in
      while !a < !z && is_trim (String.unsafe_get text !a) do
        incr a
      done;
      while !z > !a && is_trim (String.unsafe_get text (!z - 1)) do
        decr z
      done;
      line lineno !a !z;
      lines (lineno + 1) (j + 1)
    end
  in
  lines 1 0;
  finish ();
  let name = match !header with Some n -> n | None -> fail 1 "missing cfg header" in
  (match List.rev !first_two with
  | [ 0; 1 ] -> ()
  | _ -> fail 1 "the first two blocks must be B0 (entry) and B1 (exit)");
  (match !first_dup with
  | Some (line, t) -> fail line "duplicate block B%d" t
  | None -> ());
  let resolve line l =
    match l with
    | 0 -> Build.entry
    | 1 -> Build.exit_label
    | l ->
      (match Hashtbl.find_opt mapping l with
      | Some l' -> l'
      | None -> fail line "undefined label B%d" l)
  in
  List.iter
    (fun blk ->
      match blk.term with
      | Some (T_goto t) -> Build.set_term b blk.label (Cfg.Goto (resolve blk.first_line t))
      | Some (T_branch (c, x, y)) ->
        Build.set_term b blk.label (Cfg.Branch (c, resolve blk.first_line x, resolve blk.first_line y))
      | Some T_halt -> if blk.text_label <> 1 then fail blk.first_line "only the exit block B1 may halt"
      | None -> assert false)
    (List.rev !blocks_rev);
  match Build.finish b ~name ~prune:false with
  | Ok g -> g
  | Error issues -> fail 1 "invalid graph: %s" (String.concat "; " issues)

let to_string = Cfg.to_string
