type effect_ = {
  eff_op : string;
  eff_dest : (string * string) option;
  eff_args : Expr.operand list;
  eff_funcs : string list;
}

type t =
  | Assign of string * Expr.t
  | Print of Expr.operand
  | Effect of effect_

let defs = function
  | Assign (v, _) -> Some v
  | Print _ -> None
  | Effect e -> Option.map fst e.eff_dest

let operand_vars args =
  List.filter_map (function Expr.Var v -> Some v | Expr.Const _ -> None) args

let uses = function
  | Assign (_, e) -> Expr.vars e
  | Print a -> (match a with Expr.Var v -> [ v ] | Expr.Const _ -> [])
  | Effect e -> operand_vars e.eff_args

let candidate = function
  | Assign (_, e) when Expr.is_candidate e -> Some (Expr.canonical e)
  | Assign _ | Print _ | Effect _ -> None

let kills i =
  match i with
  | Assign _ | Print _ -> ( match defs i with Some v -> [ v ] | None -> [])
  | Effect e ->
    (* An opaque effect may clobber anything it touches: its destination and,
       conservatively, every variable it reads (a call or store may alias).
       Over-killing is sound for the analyses — it only suppresses motion. *)
    let vs = (match defs i with Some v -> [ v ] | None -> []) @ operand_vars e.eff_args in
    List.sort_uniq String.compare vs

let modifies i v =
  match defs i with
  | Some w -> String.equal v w
  | None -> false

let equal (a : t) (b : t) = a = b

(* Written through [Expr.add_to_buffer]: the CFG printer appends every
   instruction of a graph into one buffer. *)
let add_to_buffer buf = function
  | Assign (v, e) ->
    Buffer.add_string buf v;
    Buffer.add_string buf " := ";
    Expr.add_to_buffer buf e
  | Print a ->
    Buffer.add_string buf "print ";
    Expr.add_operand buf a
  | Effect e ->
    Buffer.add_string buf "do ";
    Buffer.add_string buf e.eff_op;
    List.iter
      (fun f ->
        Buffer.add_string buf " @";
        Buffer.add_string buf f)
      e.eff_funcs;
    List.iter
      (fun a ->
        Buffer.add_char buf ' ';
        Expr.add_operand buf a)
      e.eff_args;
    (match e.eff_dest with
     | Some (v, ty) ->
       Buffer.add_string buf " -> ";
       Buffer.add_string buf v;
       Buffer.add_char buf ' ';
       Buffer.add_string buf ty
     | None -> ())

let to_string i =
  let buf = Buffer.create 32 in
  add_to_buffer buf i;
  Buffer.contents buf

let pp ppf i = Format.pp_print_string ppf (to_string i)
