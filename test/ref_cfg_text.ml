(* The CFG text reader as it was before both text readers emitted into
   the graph builder: lines split with [String.split_on_char], words
   matched as lists, a graph built through [Cfg.create], [add_block],
   [set_instrs]/[set_term] and a cold [Validate.check].  Kept here, and
   only here, as the reference the cursor reader must agree with: the
   same graph, or the same [Cfg_text.Parse_error (message, line)]. *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Validate = Lcm_cfg.Validate
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr


let fail line fmt = Format.kasprintf (fun m -> raise (Cfg_text.Parse_error (m, line))) fmt

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

type block_acc = {
  text_label : int;
  mutable instrs_rev : Instr.t list;
  mutable term : parsed_term option;
  first_line : int;
}

let parse text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let blocks_rev = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | None -> ()
    | Some b ->
      if b.term = None then fail b.first_line "block B%d has no terminator" b.text_label;
      blocks_rev := b :: !blocks_rev;
      current := None
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" then ()
      else if String.length line >= 4 && String.sub line 0 4 = "cfg " then begin
        if !header <> None then fail lineno "duplicate cfg header";
        (* "cfg <name> (entry B0, exit B1)" *)
        let name =
          match words line with
          | "cfg" :: name :: _ -> name
          | _ -> fail lineno "malformed cfg header"
        in
        header := Some name
      end
      else if String.length line >= 2 && line.[0] = 'B' && line.[String.length line - 1] = ':' then begin
        finish ();
        let label = parse_label lineno (String.sub line 0 (String.length line - 1)) in
        current := Some { text_label = label; instrs_rev = []; term = None; first_line = lineno }
      end
      else begin
        match !current with
        | None -> fail lineno "content outside a block: %S" line
        | Some b ->
          if b.term <> None then fail lineno "block B%d continues after its terminator" b.text_label;
          let ws = words line in
          (match parse_term lineno ws with
          | Some t -> b.term <- Some t
          | None -> b.instrs_rev <- parse_instr lineno ws :: b.instrs_rev)
      end)
    lines;
  finish ();
  let name = match !header with Some n -> n | None -> fail 1 "missing cfg header" in
  let blocks = List.rev !blocks_rev in
  (match blocks with
  | { text_label = 0; _ } :: { text_label = 1; _ } :: _ -> ()
  | _ -> fail 1 "the first two blocks must be B0 (entry) and B1 (exit)");
  let g = Cfg.create ~name () in
  (* Map text labels to allocated labels, appearance order. *)
  let mapping = Hashtbl.create 16 in
  Hashtbl.replace mapping 0 (Cfg.entry g);
  Hashtbl.replace mapping 1 (Cfg.exit_label g);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen b.text_label then fail b.first_line "duplicate block B%d" b.text_label;
      Hashtbl.replace seen b.text_label ();
      if b.text_label <> 0 && b.text_label <> 1 then
        Hashtbl.replace mapping b.text_label (Cfg.add_block g ~instrs:[] ~term:Cfg.Halt))
    blocks;
  let resolve line l =
    match Hashtbl.find_opt mapping l with
    | Some l' -> l'
    | None -> fail line "undefined label B%d" l
  in
  List.iter
    (fun b ->
      let l = resolve b.first_line b.text_label in
      Cfg.set_instrs g l (List.rev b.instrs_rev);
      match b.term with
      | Some (T_goto t) -> Cfg.set_term g l (Cfg.Goto (resolve b.first_line t))
      | Some (T_branch (c, x, y)) ->
        Cfg.set_term g l (Cfg.Branch (c, resolve b.first_line x, resolve b.first_line y))
      | Some T_halt ->
        if b.text_label <> 1 then fail b.first_line "only the exit block B1 may halt"
      | None -> assert false)
    blocks;
  (match Validate.check g with
  | [] -> ()
  | issues -> fail 1 "invalid graph: %s" (String.concat "; " issues));
  g
