(** Abstract syntax of MiniImp, the small imperative surface language.

    MiniImp exists so that workloads for the optimizer can be written (and
    randomly generated) as readable programs; lowering flattens its nested
    expressions into the [v := e] instruction form the paper assumes. *)

type expr =
  | Int of int
  | Var of string
  | Unary of Expr.unop * expr
  | Binary of Expr.binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list  (** [else] branch may be empty *)
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | Print of expr
  | Return of expr

type func = {
  name : string;
  params : string list;
  body : stmt list;
}

type program = func list

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
val to_string : program -> string
