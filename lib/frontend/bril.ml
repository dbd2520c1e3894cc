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
   [segments] attaches [functions[i].instrs[j]] as it re-raises, so the
   path string is built only for the instruction that failed. *)
exception Bad_instr of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_instr m)) fmt

let instr_path fpath i = Printf.sprintf "%s.instrs[%d]" fpath i

(* ---- types as tokens ----
   Bril types are JSON ("int", {"ptr": "int"}); internally they ride
   along as compact tokens ("int", "ptr<int>") inside [Instr.Effect]. *)

let rec token_of_type = function
  | Json.String s -> s
  | Json.Obj [ (k, v) ] -> k ^ "<" ^ token_of_type v ^ ">"
  | _ -> bad "unsupported type"

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

(* ---- reader ---- *)

let get_string path field j =
  match Option.bind (Json.member field j) Json.to_string_opt with
  | Some s -> s
  | None -> fail path "missing or non-string field %S" field

let string_list field = function
  | None | Some Json.Null -> []
  | Some (Json.List xs) ->
    List.map
      (function
        | Json.String s -> s
        | _ -> bad "field %S must be a list of strings" field)
      xs
  | Some _ -> bad "field %S must be a list of strings" field

(* One parsed Bril instruction (terminators included, handled by the
   block builder). *)
type instr =
  | I_plain of Instr.t
  | I_label of string
  | I_jmp of string
  | I_br of string * string * string
  | I_ret of string option
  | I_nop

(* The fields an instruction object may carry, gathered in one pass over
   its members.  The first occurrence of a key wins, as with
   [Json.member]. *)
type fields = {
  mutable f_label : Json.t option;
  mutable f_op : Json.t option;
  mutable f_args : Json.t option;
  mutable f_labels : Json.t option;
  mutable f_funcs : Json.t option;
  mutable f_dest : Json.t option;
  mutable f_type : Json.t option;
  mutable f_value : Json.t option;
}

let gather members =
  let f =
    {
      f_label = None;
      f_op = None;
      f_args = None;
      f_labels = None;
      f_funcs = None;
      f_dest = None;
      f_type = None;
      f_value = None;
    }
  in
  List.iter
    (fun (k, v) ->
      match k with
      | "label" -> if f.f_label = None then f.f_label <- Some v
      | "op" -> if f.f_op = None then f.f_op <- Some v
      | "args" -> if f.f_args = None then f.f_args <- Some v
      | "labels" -> if f.f_labels = None then f.f_labels <- Some v
      | "funcs" -> if f.f_funcs = None then f.f_funcs <- Some v
      | "dest" -> if f.f_dest = None then f.f_dest <- Some v
      | "type" -> if f.f_type = None then f.f_type <- Some v
      | "value" -> if f.f_value = None then f.f_value <- Some v
      | _ -> ())
    members;
  f

let parse_instr = function
  | Json.Obj members ->
    let fs = gather members in
    (match fs.f_label with
    | Some (Json.String l) -> I_label l
    | Some _ -> bad "label must be a string"
    | None ->
      let op =
        match fs.f_op with
        | Some (Json.String op) -> op
        | _ -> bad "instruction has neither \"op\" nor \"label\""
      in
      let args = string_list "args" fs.f_args in
      let labels = string_list "labels" fs.f_labels in
      let funcs = string_list "funcs" fs.f_funcs in
      let dest () =
        match fs.f_dest with
        | Some (Json.String d) -> d
        | _ -> bad "missing or non-string field %S" "dest"
      in
      let ty () = token_of_type (Option.value fs.f_type ~default:Json.Null) in
      let effect () =
        let d =
          match fs.f_dest with
          | None | Some Json.Null -> None
          | Some _ -> Some (dest (), ty ())
        in
        I_plain
          (Instr.Effect
             { Instr.eff_op = op; eff_dest = d; eff_args = List.map (fun a -> Expr.Var a) args; eff_funcs = funcs })
      in
      (match op with
      | "nop" -> I_nop
      | "jmp" ->
        (match labels with
        | [ l ] -> I_jmp l
        | _ -> bad "jmp needs exactly one label")
      | "br" ->
        (match (args, labels) with
        | [ c ], [ t; f ] -> I_br (c, t, f)
        | _ -> bad "br needs one argument and two labels")
      | "ret" ->
        (match args with
        | [] -> I_ret None
        | [ a ] -> I_ret (Some a)
        | _ -> bad "ret takes at most one argument")
      | "const" ->
        let d = dest () in
        (match (ty (), fs.f_value) with
        | "int", Some (Json.Int n) -> I_plain (Instr.Assign (d, Expr.Atom (Expr.Const n)))
        | "bool", Some (Json.Bool b) -> I_plain (Instr.Assign (d, Expr.Atom (Expr.Const (if b then 1 else 0))))
        | ("int" | "bool"), _ -> bad "const value does not match its type"
        | t, _ -> bad "unsupported constant type %S" t)
      | "id" ->
        (match (ty (), args) with
        | ("int" | "bool"), [ a ] -> I_plain (Instr.Assign (dest (), Expr.Atom (Expr.Var a)))
        | _ -> effect ())
      | "print" ->
        (match args with
        | [ a ] -> I_plain (Instr.Print (Expr.Var a))
        | _ -> effect ())
      | _ ->
        (match (binop_of_op op, unop_of_op op, args) with
        | Some b, _, [ x; y ] when ty () = "int" || ty () = "bool" ->
          I_plain (Instr.Assign (dest (), Expr.Binary (b, Expr.Var x, Expr.Var y)))
        | _, Some u, [ x ] when ty () = "int" || ty () = "bool" ->
          I_plain (Instr.Assign (dest (), Expr.Unary (u, Expr.Var x)))
        | _ -> effect ())))
  | _ -> bad "instruction must be a JSON object"

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

let segments fpath instrs =
  let segs = ref [] in
  let current = ref None in
  let open_seg ?label at = current := Some { s_label = label; s_at = at; s_body = []; s_term = T_fall } in
  let close term =
    match !current with
    | Some s ->
      s.s_term <- term;
      segs := s :: !segs;
      current := None
    | None -> ()
  in
  List.iteri
    (fun i j ->
      let ins = try parse_instr j with Bad_instr m -> raise (Err (m, instr_path fpath i)) in
      match ins with
      | I_nop -> ()
      | I_label l ->
        close T_fall;
        open_seg ~label:l i
      | I_jmp l ->
        if !current = None then open_seg i;
        close (T_jmp l)
      | I_br (c, t, f) ->
        if !current = None then open_seg i;
        close (T_br (c, t, f))
      | I_ret a ->
        if !current = None then open_seg i;
        close (T_ret a)
      | I_plain instr ->
        (match !current with
        | None -> open_seg i
        | Some _ -> ());
        (match !current with
        | Some s -> s.s_body <- instr :: s.s_body
        | None -> assert false))
    instrs;
  close T_fall;
  List.rev !segs

let parse_function fpath j =
  let name = get_string fpath "name" j in
  let instrs =
    match Json.member "instrs" j with
    | Some (Json.List xs) -> xs
    | _ -> fail fpath "missing field \"instrs\""
  in
  let segs = segments fpath instrs in
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

let parse_program text =
  match Json.parse text with
  | exception Json.Parse_error m -> raise (Err ("malformed JSON: " ^ m, "$"))
  | j ->
    (match Json.member "functions" j with
    | Some (Json.List fs) ->
      if fs = [] then raise (Err ("program defines no function", "functions"));
      List.mapi (fun i f -> parse_function (Printf.sprintf "functions[%d]" i) f) fs
    | _ -> raise (Err ("missing field \"functions\"", "$")))

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
