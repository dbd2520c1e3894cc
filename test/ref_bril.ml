(* The Bril reader as it was before both text readers emitted into the
   graph builder: a cursor scan into per-function segments of
   instruction lists, then a graph built through [Cfg.create],
   [add_block], [set_instrs]/[set_term], [remove_unreachable] and a cold
   [Validate.check].  Kept here, and only here, as the reference the
   builder-backed reader must agree with: the same graph, or the same
   [Bril.Err (message, path)]. *)

module Json = Lcm_obs.Json
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Lower = Lcm_cfg.Lower
module Validate = Lcm_cfg.Validate
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr
module Bril = Lcm_frontend.Bril


let fail path fmt = Printf.ksprintf (fun m -> raise (Bril.Err (m, path))) fmt

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
  | Json.K_string -> Some (Json.string c)
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

(* ---- opcode tables (shared by reader and writer) ---- *)

let binop_of_op = function
  | "add" -> Some Expr.Add
  | "sub" -> Some Expr.Sub
  | "mul" -> Some Expr.Mul
  | "div" -> Some Expr.Div
  | "mod" -> Some Expr.Mod
  | "eq" -> Some Expr.Eq
  | "ne" -> Some Expr.Ne
  | "lt" -> Some Expr.Lt
  | "le" -> Some Expr.Le
  | "gt" -> Some Expr.Gt
  | "ge" -> Some Expr.Ge
  | "and" -> Some Expr.And
  | "or" -> Some Expr.Or
  | _ -> None

let unop_of_op = function
  | "not" -> Some Expr.Not
  | "neg" -> Some Expr.Neg
  | _ -> None

(* ---- reader ----

   The reader pulls the program off a {!Json.cursor} in one pass: it
   matches keys in place, skips every member it does not use, and feeds
   each instruction's fields straight into the block under construction,
   so no JSON tree is built.  It reports the error a reader over the
   whole tree would, in that reader's order: the first occurrence of a
   duplicated key wins; within a function, a bad "name" beats a missing
   "instrs", which beats the first bad instruction, which beats label and
   graph errors; function [i]'s error beats function [i+1]'s.  An error
   found while scanning is recorded and the scan goes on (skipping what
   can no longer matter), so malformed JSON anywhere in the document
   still wins; graphs are built only once the whole document has been
   read. *)

(* A basic block under construction: Bril's flat instruction stream is
   split at labels and after terminators. *)
type term =
  | T_jmp of string
  | T_br of string * string * string
  | T_ret of string option
  | T_fall (* falls through to the next segment (or the function's end) *)

type seg = {
  s_label : string option;
  s_at : int; (* index of the instruction that opened it *)
  mutable s_body : Instr.t list; (* reversed *)
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

type const_value =
  | V_other
  | V_int of int
  | V_bool of bool

(* What the scan learnt of one function. *)
type body =
  | B_missing (* no "instrs" list *)
  | B_bad of string * int (* the first bad instruction: message, index *)
  | B_segs of seg list

type func = {
  f_name : string option; (* the first "name", when it is a string *)
  f_body : body;
}

(* The fields of the instruction being read and the segments of the
   function being read: one per program, the fields reset for every
   instruction. *)
type reader = {
  mutable seen : int; (* keys met in this instruction *)
  mutable ill : int; (* keys whose value has the wrong shape *)
  mutable label : string;
  mutable op : string;
  mutable dest : string;
  mutable dest_null : bool;
  mutable ty : string;
  mutable value : const_value;
  mutable args : string list;
  mutable labels : string list;
  mutable funcs : string list;
  mutable strings : string list; (* the string list being read, reversed *)
  mutable list_bit : int; (* the key it belongs to *)
  mutable segs : seg list; (* closed segments, reversed *)
  mutable current : seg option;
}

let has r k = r.seen land k <> 0
let ok r k = r.seen land k <> 0 && r.ill land k = 0
let mark_ill r k = r.ill <- r.ill lor k

let read_string r k c =
  match Json.kind c with
  | Json.K_string -> Json.string c
  | kind ->
    if k = k_dest && kind = Json.K_null then r.dest_null <- true;
    mark_ill r k;
    Json.skip c;
    ""

let string_item r c =
  if Json.kind c = Json.K_string then r.strings <- Json.string c :: r.strings
  else begin
    mark_ill r r.list_bit;
    Json.skip c
  end;
  r

(* [null] or absent reads as the empty list. *)
let read_strings r k c =
  match Json.kind c with
  | Json.K_null ->
    Json.skip c;
    []
  | Json.K_list ->
    r.strings <- [];
    r.list_bit <- k;
    ignore (Json.items c string_item r);
    List.rev r.strings
  | Json.K_bool | Json.K_number | Json.K_string | Json.K_obj ->
    mark_ill r k;
    Json.skip c;
    []

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
    if k = k_op then r.op <- read_string r k c
    else if k = k_dest then r.dest <- read_string r k c
    else if k = k_type then (match read_type c with Some t -> r.ty <- t | None -> mark_ill r k)
    else if k = k_args then r.args <- read_strings r k c
    else if k = k_label then r.label <- read_string r k c
    else if k = k_labels then r.labels <- read_strings r k c
    else if k = k_value then read_value r c
    else r.funcs <- read_strings r k c
  end;
  r

let dest r = if ok r k_dest && not r.dest_null then r.dest else bad "missing or non-string field %S" "dest"
let ty r = if ok r k_type then r.ty else bad "unsupported type"

let strings r k name l = if r.ill land k <> 0 then bad "field %S must be a list of strings" name else l
let value_type r = ty r = "int" || ty r = "bool"

let open_seg r ?label at = r.current <- Some { s_label = label; s_at = at; s_body = []; s_term = T_fall }

let close r term =
  match r.current with
  | Some s ->
    s.s_term <- term;
    r.segs <- s :: r.segs;
    r.current <- None
  | None -> ()

let terminate r at term =
  if r.current = None then open_seg r at;
  close r term

let plain r at instr =
  if r.current = None then open_seg r at;
  match r.current with
  | Some s -> s.s_body <- instr :: s.s_body
  | None -> assert false

let effect r at op args funcs =
  let d =
    if (not (has r k_dest)) || r.dest_null then None
    else
      let t = ty r in
      Some (dest r, t)
  in
  plain r at
    (Instr.Effect
       { Instr.eff_op = op; eff_dest = d; eff_args = List.map (fun a -> Expr.Var a) args; eff_funcs = funcs })

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
    let op = r.op in
    let args = strings r k_args "args" r.args in
    let labels = strings r k_labels "labels" r.labels in
    let funcs = strings r k_funcs "funcs" r.funcs in
    match op with
    | "nop" -> ()
    | "jmp" ->
      (match labels with
      | [ l ] -> terminate r at (T_jmp l)
      | _ -> bad "jmp needs exactly one label")
    | "br" ->
      (match (args, labels) with
      | [ c ], [ t; f ] -> terminate r at (T_br (c, t, f))
      | _ -> bad "br needs one argument and two labels")
    | "ret" ->
      (match args with
      | [] -> terminate r at (T_ret None)
      | [ a ] -> terminate r at (T_ret (Some a))
      | _ -> bad "ret takes at most one argument")
    | "const" ->
      let d = dest r in
      (match (ty r, r.value) with
      | "int", V_int n -> plain r at (Instr.Assign (d, Expr.Atom (Expr.Const n)))
      | "bool", V_bool b -> plain r at (Instr.Assign (d, Expr.Atom (Expr.Const (if b then 1 else 0))))
      | ("int" | "bool"), _ -> bad "const value does not match its type"
      | t, _ -> bad "unsupported constant type %S" t)
    | "id" ->
      (match (ty r, args) with
      | ("int" | "bool"), [ a ] -> plain r at (Instr.Assign (dest r, Expr.Atom (Expr.Var a)))
      | _ -> effect r at op args funcs)
    | "print" ->
      (match args with
      | [ a ] -> plain r at (Instr.Print (Expr.Var a))
      | _ -> effect r at op args funcs)
    | _ ->
      (match (binop_of_op op, unop_of_op op, args) with
      | Some b, _, [ x; y ] when value_type r ->
        plain r at (Instr.Assign (dest r, Expr.Binary (b, Expr.Var x, Expr.Var y)))
      | _, Some u, [ x ] when value_type r -> plain r at (Instr.Assign (dest r, Expr.Unary (u, Expr.Var x)))
      | _ -> effect r at op args funcs)
  end

let failed f =
  match (f.f_name, f.f_body) with
  | Some _, B_segs _ -> false
  | _ -> true

(* The instructions of one function, up to the first bad one; the rest
   are only checked for syntax. *)
let read_instrs r c =
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
      r.seen <- 0;
      r.ill <- 0;
      r.dest_null <- false;
      r.value <- V_other;
      r.args <- [];
      r.labels <- [];
      r.funcs <- [];
      ignore (Json.fields c instr_field r);
      try add_instr r at with Bad_instr m -> bad_at := Some (m, at)
    end;
    at + 1
  in
  ignore (Json.items c instr 0);
  match !bad_at with
  | Some (m, at) -> B_bad (m, at)
  | None ->
    close r T_fall;
    B_segs (List.rev r.segs)

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

let build_function fpath name segs =
  let g = Cfg.create ~name () in
  let exit_l = Cfg.exit_label g in
  (* Allocate one block per segment; labels resolve to their segment's
     block.  A leading *unlabelled* segment cannot be a branch target, so
     it becomes the entry block itself; when the function opens with a
     label (Bril code may branch back to it), the entry stays a bare
     [goto first-segment] stub — our entry has no predecessors by
     construction.  The asymmetry makes [parse (print g)] reproduce [g]'s
     block structure exactly: {!print} emits the entry unlabelled. *)
  let blocks =
    List.mapi
      (fun k s ->
        if k = 0 && s.s_label = None then (s, Cfg.entry g)
        else (s, Cfg.add_block g ~instrs:[] ~term:Cfg.Halt))
      segs
  in
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun (s, l) ->
      match s.s_label with
      | Some name ->
        if Hashtbl.mem by_label name then fail (instr_path fpath s.s_at) "duplicate label %S" name;
        Hashtbl.replace by_label name l
      | None -> ())
    blocks;
  let resolve s name =
    match Hashtbl.find_opt by_label name with
    | Some l -> l
    | None -> fail (instr_path fpath s.s_at) "unknown label %S" name
  in
  let rec wire = function
    | [] -> ()
    | (s, l) :: rest ->
      let body = List.rev s.s_body in
      let next = match rest with (_, l') :: _ -> Some l' | [] -> None in
      let body, term =
        match s.s_term with
        | T_jmp t -> (body, Cfg.Goto (resolve s t))
        | T_br (c, t, f) -> (body, Cfg.Branch (Expr.Var c, resolve s t, resolve s f))
        | T_ret None -> (body, Cfg.Goto exit_l)
        | T_ret (Some x) when String.equal x Lower.return_var ->
          (* [ret _ret] is our own writer's spelling; appending
             [_ret := _ret] would grow the graph on every round trip. *)
          (body, Cfg.Goto exit_l)
        | T_ret (Some x) -> (body @ [ Instr.Assign (Lower.return_var, Expr.Atom (Expr.Var x)) ], Cfg.Goto exit_l)
        | T_fall -> (body, Cfg.Goto (Option.value next ~default:exit_l))
      in
      Cfg.set_instrs g l body;
      Cfg.set_term g l term;
      wire rest
  in
  wire blocks;
  (match blocks with
  | (_, l0) :: _ when not (Label.equal l0 (Cfg.entry g)) ->
    Cfg.set_term g (Cfg.entry g) (Cfg.Goto l0)
  | _ -> (* entry merged with the first segment (or no segments at all) *) ());
  Cfg.remove_unreachable g;
  (match Validate.check g with
  | [] -> ()
  | issues -> fail fpath "invalid graph: %s" (String.concat "; " issues));
  (name, g)

let build i f =
  let path = Printf.sprintf "functions[%d]" i in
  match (f.f_name, f.f_body) with
  | None, _ -> fail path "missing or non-string field %S" "name"
  | Some _, B_missing -> fail path "missing field \"instrs\""
  | Some _, B_bad (m, at) -> raise (Bril.Err (m, instr_path path at))
  | Some name, B_segs segs -> build_function path name segs

let parse_program text =
  let r =
    {
      seen = 0;
      ill = 0;
      label = "";
      op = "";
      dest = "";
      dest_null = false;
      ty = "";
      value = V_other;
      args = [];
      labels = [];
      funcs = [];
      strings = [];
      list_bit = 0;
      segs = [];
      current = None;
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
  | exception Json.Parse_error m -> raise (Bril.Err ("malformed JSON: " ^ m, "$"))
  | None -> raise (Bril.Err ("missing field \"functions\"", "$"))
  | Some [] -> raise (Bril.Err ("program defines no function", "functions"))
  | Some fs -> List.mapi build fs
