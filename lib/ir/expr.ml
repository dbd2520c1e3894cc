type operand =
  | Var of string
  | Const of int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop =
  | Neg
  | Not

type t =
  | Atom of operand
  | Unary of unop * operand
  | Binary of binop * operand * operand

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (e : t) = Hashtbl.hash e

let operand_vars = function
  | Var v -> [ v ]
  | Const _ -> []

let vars = function
  | Atom a -> operand_vars a
  | Unary (_, a) -> operand_vars a
  | Binary (_, a, b) -> operand_vars a @ operand_vars b

let operand_reads a v =
  match a with
  | Var w -> String.equal v w
  | Const _ -> false

let reads_var e v =
  match e with
  | Atom a -> operand_reads a v
  | Unary (_, a) -> operand_reads a v
  | Binary (_, a, b) -> operand_reads a v || operand_reads b v

let is_candidate = function
  | Atom _ -> false
  | Unary _ | Binary _ -> true

let is_commutative = function
  | Add | Mul | Eq | Ne | And | Or -> true
  | Sub | Div | Mod | Lt | Le | Gt | Ge -> false

let canonical e =
  match e with
  | Binary (op, a, b) when is_commutative op && Stdlib.compare a b > 0 -> Binary (op, b, a)
  | Atom _ | Unary _ | Binary _ -> e

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | And -> if a <> 0 && b <> 0 then 1 else 0
  | Or -> if a <> 0 || b <> 0 then 1 else 0

let eval_unop op a =
  match op with
  | Neg -> -a
  | Not -> if a = 0 then 1 else 0

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let unop_symbol = function
  | Neg -> "-"
  | Not -> "!"

(* The one printer: every textual form of an expression (and, through
   [Instr]/[Cfg], of whole graphs) is written straight into a [Buffer];
   [to_string] and [pp] below are built on it. *)
let add_operand buf = function
  | Var v -> Buffer.add_string buf v
  | Const n -> Buffer.add_string buf (string_of_int n)

let add_to_buffer buf = function
  | Atom a -> add_operand buf a
  | Unary (op, a) ->
    Buffer.add_string buf (unop_symbol op);
    add_operand buf a
  | Binary (op, a, b) ->
    add_operand buf a;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (binop_symbol op);
    Buffer.add_char buf ' ';
    add_operand buf b

let to_string e =
  let buf = Buffer.create 16 in
  add_to_buffer buf e;
  Buffer.contents buf

let pp_operand ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const n -> Format.pp_print_int ppf n

let pp_binop ppf op = Format.pp_print_string ppf (binop_symbol op)
let pp_unop ppf op = Format.pp_print_string ppf (unop_symbol op)
let pp ppf e = Format.pp_print_string ppf (to_string e)
