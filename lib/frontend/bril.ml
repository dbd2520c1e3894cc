(* A self-contained Bril JSON codec (https://capra.cs.cornell.edu/bril/):
   reader lowering Bril functions onto our CFG, and a writer rendering
   optimized graphs back out as Bril.

   Mapping, reading:
   - integer/boolean value operations (const, id, add, sub, mul, div,
     eq, lt, gt, le, ge, and, or, not — plus our [mod], [ne] and [neg]
     extensions, see below) become [Instr.Assign] of [Expr] terms, i.e.
     genuine PRE candidates;
   - [print] with one argument becomes the native [Instr.Print];
   - everything else — [call], multi-argument [print], the memory
     extension ([alloc], [free], [store], [load], [ptradd]), floats,
     unknown opcodes — lowers as an opaque [Instr.Effect]: never a
     motion candidate, conservatively killing the expressions of every
     variable it touches;
   - labels split blocks; [jmp]/[br] become terminators; [ret x] stores
     into [Lower.return_var] and jumps to the exit block; [nop] is
     dropped.

   Writing re-emits one Bril function per graph, inferring [int]/[bool]
   types by fixpoint over operator shapes and materializing constant
   operands as fresh [const] temporaries (Bril arguments are variable
   names).  Three opcodes are emitted that core Bril lacks an exact
   spelling for — [mod], [ne] and unary [neg] — chosen so that the
   reader maps them back and parse ∘ print is a graph isomorphism; a
   strictly core-Bril consumer would rewrite them as two-instruction
   sequences instead. *)

module Json = Lcm_obs.Json
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Lower = Lcm_cfg.Lower
module Build = Lcm_cfg.Build
module Vars = Lcm_cfg.Vars
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

exception Err of string * string (* message, JSON path *)

let fail path fmt = Printf.ksprintf (fun m -> raise (Err (m, path))) fmt

(* Errors inside one instruction are raised without their JSON path;
   the reader attaches [functions[i].instrs[j]] when it records one, so
   the path string is built only for the instruction that failed. *)
exception Bad_instr of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_instr m)) fmt

let instr_path fpath i = Printf.sprintf "%s.instrs[%d]" fpath i

(* ---- types as tokens ----
   Bril types are JSON ("int", {"ptr": "int"}); internally they ride
   along as compact tokens ("int", "ptr<int>") inside [Instr.Effect]. *)

(* The token of the type at the cursor, or [None] for a value that is not
   a type (consumed all the same). *)
let rec read_type c =
  match Json.kind c with
  | Json.K_string ->
    Json.string_span c;
    (* The two value types are shared literals, not one string per use. *)
    Some (if Json.span_is c "int" then "int" else if Json.span_is c "bool" then "bool" else Json.span_string c)
  | Json.K_obj ->
    (match Json.fields c type_member (0, None) with
    | 1, token -> token
    | _ -> None)
  | Json.K_null | Json.K_bool | Json.K_number | Json.K_list ->
    Json.skip c;
    None

(* A type object has exactly one member, [{"ptr": t}]. *)
and type_member (members, token) c =
  if members = 0 then begin
    let k = Json.key c in
    (1, Option.map (fun t -> k ^ "<" ^ t ^ ">") (read_type c))
  end
  else begin
    Json.skip c;
    (members + 1, token)
  end

let rec type_of_token s =
  match String.index_opt s '<' with
  | None -> Json.String s
  | Some i when String.length s > 1 && s.[String.length s - 1] = '>' ->
    Json.Obj [ (String.sub s 0 i, type_of_token (String.sub s (i + 1) (String.length s - i - 2))) ]
  | Some _ -> Json.String s

(* ---- opcode names (the writer's; the reader's are below) ---- *)

let op_of_binop = function
  | Expr.Add -> "add"
  | Expr.Sub -> "sub"
  | Expr.Mul -> "mul"
  | Expr.Div -> "div"
  | Expr.Mod -> "mod"
  | Expr.Eq -> "eq"
  | Expr.Ne -> "ne"
  | Expr.Lt -> "lt"
  | Expr.Le -> "le"
  | Expr.Gt -> "gt"
  | Expr.Ge -> "ge"
  | Expr.And -> "and"
  | Expr.Or -> "or"

(* ---- reader ----

   The reader pulls the program off a {!Json.cursor} in one pass: it
   matches keys in place, skips every member it does not use, and emits
   each instruction straight into the function's graph builder
   ({!Lcm_cfg.Build}), so no JSON tree is built.  Variable and label
   names are interned from their source spans: a name seen before
   allocates nothing.  It reports the error a reader over the whole tree
   would, in that reader's order: the first occurrence of a duplicated
   key wins; within a function, a bad "name" beats a missing "instrs",
   which beats the first bad instruction, which beats label and graph
   errors; function [i]'s error beats function [i+1]'s.  An error found
   while scanning is recorded and the scan goes on (skipping what can no
   longer matter), so malformed JSON anywhere in the document still wins;
   graphs are assembled only once the whole document has been read. *)

(* A basic block under construction: Bril's flat instruction stream is
   split at labels and after terminators.  Labels are numbers in the
   function's label table, variables numbers in its builder's. *)
type term =
  | T_jmp of int
  | T_br of int * int * int
  | T_ret
  | T_fall (* falls through to the next segment (or the function's end) *)

type seg = {
  s_label : int; (* -1: unlabelled *)
  s_at : int; (* index of the instruction that opened it *)
  s_block : Label.t;
  mutable s_term : term;
}

(* One bit per instruction key the reader uses. *)
let k_label = 1
let k_op = 2
let k_args = 4
let k_labels = 8
let k_funcs = 16
let k_dest = 32
let k_type = 64
let k_value = 128

let key_bit c =
  if Json.key_is c "op" then k_op
  else if Json.key_is c "dest" then k_dest
  else if Json.key_is c "type" then k_type
  else if Json.key_is c "args" then k_args
  else if Json.key_is c "label" then k_label
  else if Json.key_is c "labels" then k_labels
  else if Json.key_is c "value" then k_value
  else if Json.key_is c "funcs" then k_funcs
  else 0

(* Opcodes: the reader's own, then the operators; every other op is an
   opaque effect, named by its text. *)
let op_nop = 0
let op_jmp = 1
let op_br = 2
let op_ret = 3
let op_const = 4
let op_id = 5
let op_print = 6
let op_effect = 7
let op_binary = 8 (* + binop index *)
let op_unary = 21 (* + unop index *)

let op_names = [| "nop"; "jmp"; "br"; "ret"; "const"; "id"; "print" |]

let binops =
  [|
    ("add", Expr.Add);
    ("sub", Expr.Sub);
    ("mul", Expr.Mul);
    ("div", Expr.Div);
    ("mod", Expr.Mod);
    ("eq", Expr.Eq);
    ("ne", Expr.Ne);
    ("lt", Expr.Lt);
    ("le", Expr.Le);
    ("gt", Expr.Gt);
    ("ge", Expr.Ge);
    ("and", Expr.And);
    ("or", Expr.Or);
  |]

let unops = [| ("not", Expr.Not); ("neg", Expr.Neg) |]

let rec same s at w j n = j = n || (String.unsafe_get s (at + j) = String.unsafe_get w j && same s at w (j + 1) n)
let is s at len w = len = String.length w && same s at w 0 len

(* The opcode of the op spelt by [len] bytes of [s] at [at]. *)
let opcode s at len =
  match len with
  | 2 ->
    (match (String.unsafe_get s at, String.unsafe_get s (at + 1)) with
    | 'b', 'r' -> op_br
    | 'i', 'd' -> op_id
    | 'e', 'q' -> op_binary + 5
    | 'n', 'e' -> op_binary + 6
    | 'l', 't' -> op_binary + 7
    | 'l', 'e' -> op_binary + 8
    | 'g', 't' -> op_binary + 9
    | 'g', 'e' -> op_binary + 10
    | 'o', 'r' -> op_binary + 12
    | _ -> op_effect)
  | 3 ->
    if is s at len "jmp" then op_jmp
    else if is s at len "add" then op_binary
    else if is s at len "sub" then op_binary + 1
    else if is s at len "mul" then op_binary + 2
    else if is s at len "div" then op_binary + 3
    else if is s at len "mod" then op_binary + 4
    else if is s at len "and" then op_binary + 11
    else if is s at len "not" then op_unary
    else if is s at len "neg" then op_unary + 1
    else if is s at len "ret" then op_ret
    else if is s at len "nop" then op_nop
    else op_effect
  | 5 -> if is s at len "const" then op_const else if is s at len "print" then op_print else op_effect
  | _ -> op_effect

type const_value =
  | V_other
  | V_int of int
  | V_bool of bool

(* What the scan learnt of one function. *)
type body =
  | B_missing (* no "instrs" list *)
  | B_bad of string * int (* the first bad instruction: message, index *)
  | B_segs of Build.t * Vars.t * seg list (* builder, label names, segments *)

type func = {
  f_name : string option; (* the first "name", when it is a string *)
  f_body : body;
}

(* The fields of the instruction being read and the function being read:
   one per program, the fields reset for every instruction. *)
type reader = {
  mutable seen : int; (* keys met in this instruction *)
  mutable ill : int; (* keys whose value has the wrong shape *)
  mutable label : int;
  mutable op : int;
  mutable op_text : string; (* an effect's op *)
  mutable dest : int;
  mutable dest_null : bool;
  mutable ty : string;
  mutable value : const_value;
  mutable args : int array; (* variable numbers *)
  mutable nargs : int;
  mutable labels : int array; (* label numbers *)
  mutable nlabels : int;
  mutable funcs : string list;
  mutable strings : string list; (* the "funcs" list being read, reversed *)
  mutable list_bit : int; (* the key of the list being read *)
  mutable b : Build.t; (* the function's builder *)
  mutable names : Vars.t; (* the function's label names *)
  mutable segs : seg list; (* closed segments, reversed *)
  mutable current : seg option;
  mutable hint : int; (* the document's length, until a function has used it *)
}

let has r k = r.seen land k <> 0
let ok r k = r.seen land k <> 0 && r.ill land k = 0
let mark_ill r k = r.ill <- r.ill lor k

let push a n x =
  let a = if n = Array.length a then Array.append a a else a in
  Array.unsafe_set a n x;
  a

(* A string's span interned as a variable or label name. *)
let intern table c = Vars.intern_sub table (Json.span_src c) (Json.span_at c) (Json.span_len c)

let list_item r c =
  if Json.kind c = Json.K_string then begin
    if r.list_bit = k_args then begin
      Json.string_span c;
      r.args <- push r.args r.nargs (Build.var r.b (Json.span_src c) (Json.span_at c) (Json.span_len c));
      r.nargs <- r.nargs + 1
    end
    else if r.list_bit = k_labels then begin
      Json.string_span c;
      r.labels <- push r.labels r.nlabels (intern r.names c);
      r.nlabels <- r.nlabels + 1
    end
    else r.strings <- Json.string c :: r.strings
  end
  else begin
    mark_ill r r.list_bit;
    Json.skip c
  end;
  r

(* [null] or absent reads as the empty list. *)
let read_list r k c =
  match Json.kind c with
  | Json.K_null -> Json.skip c
  | Json.K_list ->
    r.list_bit <- k;
    ignore (Json.items c list_item r)
  | Json.K_bool | Json.K_number | Json.K_string | Json.K_obj ->
    mark_ill r k;
    Json.skip c

(* A string field's span, or a mark that it is not a string. *)
let read_span r k c =
  match Json.kind c with
  | Json.K_string ->
    Json.string_span c;
    true
  | kind ->
    if k = k_dest && kind = Json.K_null then r.dest_null <- true;
    mark_ill r k;
    Json.skip c;
    false

let read_value r c =
  match Json.kind c with
  | Json.K_number -> (match Json.int c with Some n -> r.value <- V_int n | None -> ())
  | Json.K_bool -> r.value <- V_bool (Json.bool c)
  | Json.K_null | Json.K_string | Json.K_list | Json.K_obj -> Json.skip c

let instr_field r c =
  let k = key_bit c in
  if k = 0 || has r k then Json.skip c
  else begin
    r.seen <- r.seen lor k;
    if k = k_op then begin
      if read_span r k c then begin
        r.op <- opcode (Json.span_src c) (Json.span_at c) (Json.span_len c);
        if r.op = op_effect then r.op_text <- Json.span_string c
      end
    end
    else if k = k_dest then (if read_span r k c then r.dest <- Build.var r.b (Json.span_src c) (Json.span_at c) (Json.span_len c))
    else if k = k_type then (match read_type c with Some t -> r.ty <- t | None -> mark_ill r k)
    else if k = k_args then read_list r k c
    else if k = k_label then (if read_span r k c then r.label <- intern r.names c)
    else if k = k_labels then read_list r k c
    else if k = k_value then read_value r c
    else begin
      r.strings <- [];
      read_list r k c;
      r.funcs <- List.rev r.strings
    end
  end;
  r

let dest r = if ok r k_dest && not r.dest_null then r.dest else bad "missing or non-string field %S" "dest"
let ty r = if ok r k_type then r.ty else bad "unsupported type"

let check_list r k name = if r.ill land k <> 0 then bad "field %S must be a list of strings" name
let value_type r = ty r = "int" || ty r = "bool"

(* A segment opens a block: the function's first one is the entry when it
   is unlabelled, every other one a fresh block. *)
let open_seg r ?(label = -1) at =
  let block = if r.segs = [] && label < 0 then Build.entry else Build.new_block r.b in
  Build.start r.b block;
  r.current <- Some { s_label = label; s_at = at; s_block = block; s_term = T_fall }

let close r term =
  match r.current with
  | Some s ->
    s.s_term <- term;
    r.segs <- s :: r.segs;
    r.current <- None
  | None -> ()

let open_if_none r at = if r.current = None then open_seg r at

let terminate r at term =
  open_if_none r at;
  close r term

let var_code = Vars.var_code

let effect r at op =
  let d =
    if (not (has r k_dest)) || r.dest_null then None
    else
      let t = ty r in
      Some (dest r, t)
  in
  open_if_none r at;
  Build.effect r.b op d (List.init r.nargs (fun i -> var_code r.args.(i))) r.funcs

let op_text r = if r.op = op_effect then r.op_text else if r.op < op_effect then op_names.(r.op) else if r.op >= op_unary then fst unops.(r.op - op_unary) else fst binops.(r.op - op_binary)

(* Lower the instruction just read (the [at]th of its function) into the
   segments.  Raises [Bad_instr]. *)
let add_instr r at =
  if has r k_label then begin
    if not (ok r k_label) then bad "label must be a string";
    close r T_fall;
    open_seg r ~label:r.label at
  end
  else begin
    if not (ok r k_op) then bad "instruction has neither \"op\" nor \"label\"";
    check_list r k_args "args";
    check_list r k_labels "labels";
    check_list r k_funcs "funcs";
    let op = r.op in
    if op = op_nop then ()
    else if op = op_jmp then (if r.nlabels = 1 then terminate r at (T_jmp r.labels.(0)) else bad "jmp needs exactly one label")
    else if op = op_br then begin
      if r.nargs = 1 && r.nlabels = 2 then terminate r at (T_br (r.args.(0), r.labels.(0), r.labels.(1)))
      else bad "br needs one argument and two labels"
    end
    else if op = op_ret then begin
      match r.nargs with
      | 0 -> terminate r at T_ret
      | 1 ->
        open_if_none r at;
        let x = r.args.(0) in
        (* [ret _ret] is our own writer's spelling; appending [_ret := _ret]
           would grow the graph on every round trip. *)
        if not (String.equal (Build.var_name r.b x) Lower.return_var) then
          Build.copy r.b (Build.var_of_name r.b Lower.return_var) (var_code x);
        close r T_ret
      | _ -> bad "ret takes at most one argument"
    end
    else if op = op_const then begin
      let d = dest r in
      match (ty r, r.value) with
      | "int", V_int n ->
        open_if_none r at;
        Build.copy r.b d (Build.const r.b n)
      | "bool", V_bool v ->
        open_if_none r at;
        Build.copy r.b d (Build.const r.b (if v then 1 else 0))
      | ("int" | "bool"), _ -> bad "const value does not match its type"
      | t, _ -> bad "unsupported constant type %S" t
    end
    else if op = op_id then begin
      match ty r with
      | ("int" | "bool") when r.nargs = 1 ->
        let d = dest r in
        open_if_none r at;
        Build.copy r.b d (var_code r.args.(0))
      | _ -> effect r at (op_text r)
    end
    else if op = op_print then begin
      if r.nargs = 1 then begin
        open_if_none r at;
        Build.print r.b (var_code r.args.(0))
      end
      else effect r at (op_text r)
    end
    else if op >= op_binary && op < op_unary && r.nargs = 2 && value_type r then begin
      let d = dest r in
      open_if_none r at;
      Build.binary r.b d (snd binops.(op - op_binary)) (var_code r.args.(0)) (var_code r.args.(1))
    end
    else if op >= op_unary && r.nargs = 1 && value_type r then begin
      let d = dest r in
      open_if_none r at;
      Build.unary r.b d (snd unops.(op - op_unary)) (var_code r.args.(0))
    end
    else effect r at (op_text r)
  end

(* ---- the fast path ----

   Most instructions are small objects of plain members: strings without
   escapes, lists of them, a decimal integer or a boolean, each key once.
   [fast_instr] reads such an object straight off the bytes into the
   reader's fields — the state [Json.fields] with [instr_field] would
   leave — and returns the offset after it; on anything else (an escape,
   an unknown or repeated key, a type object, whitespace it does not
   expect, malformed JSON) it returns -1 having consumed nothing, and the
   object takes the general path, which reports whatever is wrong. *)

let is_ws ch = ch = ' ' || ch = '\n' || ch = '\t' || ch = '\r'
let rec ws s i n = if i < n && is_ws (String.unsafe_get s i) then ws s (i + 1) n else i

(* The closing quote of a string body starting at [i]; -1 at an escape or
   the end of the input. *)
let rec quote s i n =
  if i >= n then -1
  else match String.unsafe_get s i with '"' -> i | '\\' -> -1 | _ -> quote s (i + 1) n

let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* A list of plain strings at [i] (its '['), each interned into [table]
   and pushed on [r.args] or [r.labels] per [k]; the offset after its ']'
   or -1. *)
let rec fast_items r k table s i n =
  let i = ws s i n in
  if i >= n || String.unsafe_get s i <> '"' then -1
  else
    let q = quote s (i + 1) n in
    if q < 0 then -1
    else begin
      let v = Vars.intern_sub table s (i + 1) (q - i - 1) in
      if k = k_args then begin
        r.args <- push r.args r.nargs v;
        r.nargs <- r.nargs + 1
      end
      else begin
        r.labels <- push r.labels r.nlabels v;
        r.nlabels <- r.nlabels + 1
      end;
      let i = ws s (q + 1) n in
      if i >= n then -1
      else match String.unsafe_get s i with
        | ',' -> fast_items r k table s (i + 1) n
        | ']' -> i + 1
        | _ -> -1
    end

let fast_list r k table s i n =
  let i = ws s (i + 1) n in
  if i < n && String.unsafe_get s i = ']' then i + 1 else fast_items r k table s i n

let rec fast_digits s i n v = if i < n && String.unsafe_get s i >= '0' && String.unsafe_get s i <= '9' then fast_digits s (i + 1) n ((10 * v) + Char.code (String.unsafe_get s i) - 48) else (i, v)

(* The member value at [i] of key [k]; the offset after it or -1. *)
let fast_value r k s i n =
  let ch = if i < n then String.unsafe_get s i else '\000' in
  if k = k_args then (if ch = '[' then fast_list r k (Build.vars r.b) s i n else -1)
  else if k = k_labels then (if ch = '[' then fast_list r k r.names s i n else -1)
  else if k = k_value then begin
    if ch = 't' && i + 4 <= n && same s i "true" 0 4 then begin
      r.value <- V_bool true;
      i + 4
    end
    else if ch = 'f' && i + 5 <= n && same s i "false" 0 5 then begin
      r.value <- V_bool false;
      i + 5
    end
    else begin
      let neg = ch = '-' in
      let d = if neg then i + 1 else i in
      let e, v = fast_digits s d n 0 in
      if e = d || e - d > 18 || (e < n && is_number_char (String.unsafe_get s e)) then -1
      else begin
        r.value <- V_int (if neg then -v else v);
        e
      end
    end
  end
  else if ch <> '"' then -1
  else begin
    let q = quote s (i + 1) n in
    if q < 0 then -1
    else begin
      let at = i + 1 and len = q - i - 1 in
      if k = k_op then begin
        r.op <- opcode s at len;
        if r.op = op_effect then r.op_text <- String.sub s at len
      end
      else if k = k_dest then r.dest <- Build.var r.b s at len
      else if k = k_type then r.ty <- (if is s at len "int" then "int" else if is s at len "bool" then "bool" else String.sub s at len)
      else r.label <- Vars.intern_sub r.names s at len;
      q + 1
    end
  end

let fast_key s at len =
  match len with
  | 2 -> if is s at len "op" then k_op else 0
  | 4 -> if is s at len "dest" then k_dest else if is s at len "type" then k_type else if is s at len "args" then k_args else 0
  | 5 -> if is s at len "label" then k_label else if is s at len "value" then k_value else 0
  | 6 -> if is s at len "labels" then k_labels else 0
  | _ -> 0

let rec fast_members r s i n =
  let i = ws s i n in
  if i >= n || String.unsafe_get s i <> '"' then -1
  else
    let q = quote s (i + 1) n in
    let k = if q < 0 then 0 else fast_key s (i + 1) (q - i - 1) in
    if k = 0 || has r k then -1
    else begin
      let i = ws s (q + 1) n in
      if i >= n || String.unsafe_get s i <> ':' then -1
      else begin
        r.seen <- r.seen lor k;
        let i = fast_value r k s (ws s (i + 1) n) n in
        if i < 0 then -1
        else
          let i = ws s i n in
          if i >= n then -1
          else match String.unsafe_get s i with
            | ',' -> fast_members r s (i + 1) n
            | '}' -> i + 1
            | _ -> -1
      end
    end

let fast_instr r c =
  let s = Json.source c and i = Json.position c in
  if i < String.length s && String.unsafe_get s i = '{' then fast_members r s (i + 1) (String.length s) else -1

let reset r =
  r.seen <- 0;
  r.ill <- 0;
  r.dest_null <- false;
  r.value <- V_other;
  r.nargs <- 0;
  r.nlabels <- 0;
  r.funcs <- []

let failed f =
  match (f.f_name, f.f_body) with
  | Some _, B_segs _ -> false
  | _ -> true

(* The instructions of one function, up to the first bad one; the rest
   are only checked for syntax. *)
let read_instrs r c =
  (* The first function's tables are sized from the document (its only
     function, most often); later ones grow as they read. *)
  r.b <- (if r.hint > 0 then Build.create ~blocks:(r.hint / 160) ~vars:(r.hint / 200) () else Build.create ());
  r.names <- Vars.create ~size:(r.hint / 160) ();
  r.hint <- 0;
  r.segs <- [];
  r.current <- None;
  let bad_at = ref None in
  let instr at c =
    if !bad_at <> None then Json.skip c
    else if Json.kind c <> Json.K_obj then begin
      bad_at := Some ("instruction must be a JSON object", at);
      Json.skip c
    end
    else begin
      reset r;
      let after = fast_instr r c in
      if after >= 0 then Json.set_position c after
      else begin
        reset r;
        ignore (Json.fields c instr_field r)
      end;
      try add_instr r at with Bad_instr m -> bad_at := Some (m, at)
    end;
    at + 1
  in
  ignore (Json.items c instr 0);
  match !bad_at with
  | Some (m, at) -> B_bad (m, at)
  | None ->
    close r T_fall;
    B_segs (r.b, r.names, List.rev r.segs)

let read_function r c =
  let name = ref None and name_seen = ref false in
  let body = ref B_missing and body_seen = ref false in
  let member () c =
    if (not !name_seen) && Json.key_is c "name" then begin
      name_seen := true;
      if Json.kind c = Json.K_string then name := Some (Json.string c) else Json.skip c
    end
    else if (not !body_seen) && Json.key_is c "instrs" then begin
      body_seen := true;
      if Json.kind c = Json.K_list then body := read_instrs r c else Json.skip c
    end
    else Json.skip c
  in
  (match Json.kind c with
  | Json.K_obj -> Json.fields c member ()
  | Json.K_null | Json.K_bool | Json.K_number | Json.K_string | Json.K_list -> Json.skip c);
  { f_name = !name; f_body = !body }

(* The functions up to the first one that failed to scan; later ones are
   only checked for syntax, their errors cannot be the first. *)
let read_functions r c =
  let item read c =
    match read with
    | f :: _ when failed f ->
      Json.skip c;
      read
    | _ -> read_function r c :: read
  in
  List.rev (Json.items c item [])

(* Resolve the segments' labels and terminators, then assemble.  Labels
   resolve to their segment's block; every duplicate is looked for before
   any target is resolved.  When the function opens with a label (Bril
   code may branch back to it), the entry stays a bare [goto
   first-segment] stub — our entry has no predecessors by construction;
   a leading unlabelled segment is the entry block itself.  The asymmetry
   makes [parse (print g)] reproduce [g]'s block structure exactly:
   {!print} emits the entry unlabelled.  Blocks no path reaches are
   dropped. *)
let build_function fpath name b names segs =
  let exit_l = Build.exit_label in
  let block_of = Array.make (Vars.size names) (-1) in
  List.iter
    (fun s ->
      if s.s_label >= 0 then begin
        if block_of.(s.s_label) >= 0 then
          fail (instr_path fpath s.s_at) "duplicate label %S" (Vars.name names s.s_label);
        block_of.(s.s_label) <- s.s_block
      end)
    segs;
  let resolve s label =
    let l = block_of.(label) in
    if l >= 0 then l else fail (instr_path fpath s.s_at) "unknown label %S" (Vars.name names label)
  in
  let rec wire = function
    | [] -> ()
    | s :: rest ->
      let next = match rest with s' :: _ -> Some s'.s_block | [] -> None in
      let term =
        match s.s_term with
        | T_jmp t -> Cfg.Goto (resolve s t)
        | T_br (c, t, f) -> Cfg.Branch (Build.operand b (var_code c), resolve s t, resolve s f)
        | T_ret -> Cfg.Goto exit_l
        | T_fall -> Cfg.Goto (Option.value next ~default:exit_l)
      in
      Build.set_term b s.s_block term;
      wire rest
  in
  wire segs;
  (match segs with
  | s :: _ when s.s_block <> Build.entry -> Build.set_term b Build.entry (Cfg.Goto s.s_block)
  | _ -> (* entry merged with the first segment (or no segments at all) *) ());
  match Build.finish b ~name ~prune:true with
  | Ok g -> (name, g)
  | Error issues -> fail fpath "invalid graph: %s" (String.concat "; " issues)

let build i f =
  let path = Printf.sprintf "functions[%d]" i in
  match (f.f_name, f.f_body) with
  | None, _ -> fail path "missing or non-string field %S" "name"
  | Some _, B_missing -> fail path "missing field \"instrs\""
  | Some _, B_bad (m, at) -> raise (Err (m, instr_path path at))
  | Some name, B_segs (b, names, segs) -> build_function path name b names segs

let parse_program text =
  let r =
    {
      seen = 0;
      ill = 0;
      label = 0;
      op = 0;
      op_text = "";
      dest = 0;
      dest_null = false;
      ty = "";
      value = V_other;
      args = Array.make 4 0;
      nargs = 0;
      labels = Array.make 4 0;
      nlabels = 0;
      funcs = [];
      strings = [];
      list_bit = 0;
      b = Build.create ();
      names = Vars.create ();
      segs = [];
      current = None;
      hint = String.length text;
    }
  in
  (* The first "functions" member, when it is a list. *)
  let scan () =
    let c = Json.cursor text in
    let member (functions, seen) c =
      if (not seen) && Json.key_is c "functions" then
        if Json.kind c = Json.K_list then (Some (read_functions r c), true)
        else begin
          Json.skip c;
          (None, true)
        end
      else begin
        Json.skip c;
        (functions, seen)
      end
    in
    let functions =
      match Json.kind c with
      | Json.K_obj -> fst (Json.fields c member (None, false))
      | Json.K_null | Json.K_bool | Json.K_number | Json.K_string | Json.K_list ->
        Json.skip c;
        None
    in
    Json.finish c;
    functions
  in
  match scan () with
  | exception Json.Parse_error m -> raise (Err ("malformed JSON: " ^ m, "$"))
  | None -> raise (Err ("missing field \"functions\"", "$"))
  | Some [] -> raise (Err ("program defines no function", "functions"))
  | Some fs -> List.mapi build fs

(* ---- writer ---- *)

(* int/bool inference by fixpoint: definitions constrain their target
   (comparisons and logic yield bool, arithmetic int), uses constrain
   their operands, copies propagate, effect destinations carry their
   declared token.  Unconstrained variables default to int.  First
   constraint wins: a variable reused at several types (possible in
   synthetic graphs, not in well-typed Bril input) keeps its first
   inferred type — the reader does not type-check, so such programs
   still round-trip isomorphically. *)
let infer_types g =
  let ty = Hashtbl.create 32 in
  let changed = ref true in
  let set v t =
    if not (Hashtbl.mem ty v) then begin
      Hashtbl.replace ty v t;
      changed := true
    end
  in
  let set_operand t = function
    | Expr.Var v -> set v t
    | Expr.Const _ -> ()
  in
  let result_type = function
    | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne | Expr.And | Expr.Or -> "bool"
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod -> "int"
  in
  let operand_type = function
    | Expr.And | Expr.Or -> "bool"
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge
    | Expr.Eq | Expr.Ne -> "int"
  in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        List.iter
          (fun i ->
            match i with
            | Instr.Assign (v, Expr.Binary (op, a, b)) ->
              set v (result_type op);
              set_operand (operand_type op) a;
              set_operand (operand_type op) b
            | Instr.Assign (v, Expr.Unary (Expr.Not, a)) ->
              set v "bool";
              set_operand "bool" a
            | Instr.Assign (v, Expr.Unary (Expr.Neg, a)) ->
              set v "int";
              set_operand "int" a
            | Instr.Assign (v, Expr.Atom (Expr.Var w)) ->
              (match (Hashtbl.find_opt ty w, Hashtbl.find_opt ty v) with
              | Some t, None -> set v t
              | None, Some t -> set w t
              | _ -> ())
            | Instr.Assign (_, Expr.Atom (Expr.Const _)) -> ()
            | Instr.Print a -> set_operand "int" a
            | Instr.Effect e ->
              (match e.Instr.eff_dest with
              | Some (v, t) -> set v t
              | None -> ()))
          (Cfg.instrs g l);
        match Cfg.term g l with
        | Cfg.Branch (c, _, _) -> set_operand "bool" c
        | Cfg.Goto _ | Cfg.Halt -> ())
      (Cfg.labels g)
  done;
  fun v -> Option.value (Hashtbl.find_opt ty v) ~default:"int"

(* Variables the function may read before writing become its parameters.
   A syntactic free-variable check is not enough: a name can be both an
   input and a later destination (a call overwriting one of its own
   arguments), so this is live-in at the entry — classic backward
   liveness to a fixpoint. *)
let free_vars g =
  let labels = Cfg.labels g in
  (* Per-block gen (read before any local write) and kill (written). *)
  let local l =
    let gen = Hashtbl.create 8 and killed = Hashtbl.create 8 in
    List.iter
      (fun i ->
        List.iter (fun v -> if not (Hashtbl.mem killed v) then Hashtbl.replace gen v ()) (Instr.uses i);
        Option.iter (fun v -> Hashtbl.replace killed v ()) (Instr.defs i))
      (Cfg.instrs g l);
    (match Cfg.term g l with
    | Cfg.Branch (Expr.Var v, _, _) -> if not (Hashtbl.mem killed v) then Hashtbl.replace gen v ()
    | Cfg.Branch (Expr.Const _, _, _) | Cfg.Goto _ | Cfg.Halt -> ());
    (gen, killed)
  in
  let locals = List.map (fun l -> (l, local l)) labels in
  let live_in : (Label.t, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace live_in l (Hashtbl.create 8)) labels;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (l, (gen, killed)) ->
        let here = Hashtbl.find live_in l in
        let add v =
          if not (Hashtbl.mem here v) then begin
            Hashtbl.replace here v ();
            changed := true
          end
        in
        Hashtbl.iter (fun v () -> add v) gen;
        List.iter
          (fun s ->
            Hashtbl.iter (fun v () -> if not (Hashtbl.mem killed v) then add v) (Hashtbl.find live_in s))
          (Cfg.successors g l))
      locals
  done;
  let at_entry = Hashtbl.find live_in (Cfg.entry g) in
  List.filter (Hashtbl.mem at_entry) (Cfg.all_vars g)

let defines g v =
  List.exists
    (fun l ->
      List.exists (fun i -> Instr.defs i = Some v) (Cfg.instrs g l))
    (Cfg.labels g)

let print g =
  let type_of = infer_types g in
  let taken = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace taken v ()) (Cfg.all_vars g);
  let counter = ref 0 in
  let fresh () =
    let rec go () =
      let c = Printf.sprintf "c%d" !counter in
      incr counter;
      if Hashtbl.mem taken c then go ()
      else begin
        Hashtbl.replace taken c ();
        c
      end
    in
    go ()
  in
  let out = ref [] in
  let emit j = out := j :: !out in
  let const_instr d t n =
    Json.Obj
      [
        ("op", Json.String "const");
        ("dest", Json.String d);
        ("type", Json.String t);
        ("value", (if t = "bool" then Json.Bool (n <> 0) else Json.Int n));
      ]
  in
  (* Bril arguments are variable names: a constant operand materializes
     as a fresh [const] temporary right before its use. *)
  let operand t = function
    | Expr.Var v -> v
    | Expr.Const n ->
      let d = fresh () in
      emit (const_instr d t n);
      d
  in
  let value_instr op dest dty args =
    Json.Obj
      [
        ("op", Json.String op);
        ("dest", Json.String dest);
        ("type", type_of_token dty);
        ("args", Json.List (List.map (fun a -> Json.String a) args));
      ]
  in
  let operand_type = function
    | Expr.And | Expr.Or -> "bool"
    | _ -> "int"
  in
  let result_type = function
    | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne | Expr.And | Expr.Or -> "bool"
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod -> "int"
  in
  let emit_instr = function
    | Instr.Assign (v, Expr.Atom (Expr.Const n)) -> emit (const_instr v (type_of v) n)
    | Instr.Assign (v, Expr.Atom (Expr.Var w)) -> emit (value_instr "id" v (type_of v) [ w ])
    | Instr.Assign (v, Expr.Unary (op, a)) ->
      let t = match op with Expr.Not -> "bool" | Expr.Neg -> "int" in
      emit (value_instr (match op with Expr.Not -> "not" | Expr.Neg -> "neg") v t [ operand t a ])
    | Instr.Assign (v, Expr.Binary (op, a, b)) ->
      let t = operand_type op in
      let xa = operand t a in
      let xb = operand t b in
      emit (value_instr (op_of_binop op) v (result_type op) [ xa; xb ])
    | Instr.Print a -> emit (Json.Obj [ ("op", Json.String "print"); ("args", Json.List [ Json.String (operand "int" a) ]) ])
    | Instr.Effect e ->
      let args = List.map (operand "int") e.Instr.eff_args in
      emit
        (Json.Obj
           ([ ("op", Json.String e.Instr.eff_op) ]
           @ (match e.Instr.eff_dest with
             | Some (v, t) -> [ ("dest", Json.String v); ("type", type_of_token t) ]
             | None -> [])
           @ (if e.Instr.eff_funcs = [] then []
              else [ ("funcs", Json.List (List.map (fun f -> Json.String f) e.Instr.eff_funcs)) ])
           @ if args = [] then [] else [ ("args", Json.List (List.map (fun a -> Json.String a) args)) ]))
  in
  let returns = defines g Lower.return_var in
  let ret_instr =
    Json.Obj
      (("op", Json.String "ret")
      :: (if returns then [ ("args", Json.List [ Json.String Lower.return_var ]) ] else []))
  in
  let label_name l = Printf.sprintf "b%d" (l : Label.t :> int) in
  let entry_l = Cfg.entry g in
  let exit_l = Cfg.exit_label g in
  (* Keep parse ∘ print structure-preserving: the entry prints unlabeled
     (the reader folds a leading unlabeled segment back into its entry
     block), and an empty exit that no branch targets is not printed at
     all — a [Goto exit] inlines as [ret] instead.  A [Goto] can spell
     its target as a fall-through-to-[ret], a [Branch] cannot. *)
  let entry_inline = Cfg.predecessors g entry_l = [] in
  let exit_needed =
    Cfg.instrs g exit_l <> []
    || List.exists
         (fun l ->
           (not (Label.equal l exit_l))
           &&
           match Cfg.term g l with
           | Cfg.Branch (_, a, b) -> Label.equal a exit_l || Label.equal b exit_l
           | Cfg.Goto _ | Cfg.Halt -> false)
         (Cfg.labels g)
  in
  List.iter
    (fun l ->
      if Label.equal l exit_l && not exit_needed then ()
      else begin
        if not (Label.equal l entry_l && entry_inline) then
          emit (Json.Obj [ ("label", Json.String (label_name l)) ]);
        List.iter emit_instr (Cfg.instrs g l);
        if Label.equal l exit_l then emit ret_instr
        else
          match Cfg.term g l with
          | Cfg.Goto m when Label.equal m exit_l && not exit_needed -> emit ret_instr
          | Cfg.Goto m -> emit (Json.Obj [ ("op", Json.String "jmp"); ("labels", Json.List [ Json.String (label_name m) ]) ])
          | Cfg.Branch (c, a, b) ->
            let cv = operand "bool" c in
            emit
              (Json.Obj
                 [
                   ("op", Json.String "br");
                   ("args", Json.List [ Json.String cv ]);
                   ("labels", Json.List [ Json.String (label_name a); Json.String (label_name b) ]);
                 ])
          | Cfg.Halt -> emit ret_instr
      end)
    (Cfg.labels g);
  let func =
    Json.Obj
      ([ ("name", Json.String (Cfg.name g)) ]
      @ [
          ( "args",
            Json.List
              (List.map
                 (fun v -> Json.Obj [ ("name", Json.String v); ("type", type_of_token (type_of v)) ])
                 (List.sort String.compare (free_vars g))) );
        ]
      @ (if returns then [ ("type", type_of_token (type_of Lower.return_var)) ] else [])
      @ [ ("instrs", Json.List (List.rev !out)) ])
  in
  Json.to_string (Json.Obj [ ("functions", Json.List [ func ]) ])
