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
module Validate = Lcm_cfg.Validate
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

let rec type_of_token s =
  match String.index_opt s '<' with
  | None -> Json.String s
  | Some i when String.length s > 1 && s.[String.length s - 1] = '>' ->
    Json.Obj [ (String.sub s 0 i, type_of_token (String.sub s (i + 1) (String.length s - i - 2))) ]
  | Some _ -> Json.String s

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
  | Some _, B_bad (m, at) -> raise (Err (m, instr_path path at))
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
