type expr =
  | Int of int
  | Var of string
  | Unary of Expr.unop * expr
  | Binary of Expr.binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
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

(* Precedence levels used to parenthesize only where needed: comparisons
   bind loosest, then additive, then multiplicative, then unary. *)
let binop_level = function
  | Expr.And | Expr.Or -> 0
  | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne -> 1
  | Expr.Add | Expr.Sub -> 2
  | Expr.Mul | Expr.Div | Expr.Mod -> 3

let rec pp_expr_level level ppf = function
  | Int n -> if n < 0 then Format.fprintf ppf "(%d)" n else Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v
  | Unary (op, e) -> Format.fprintf ppf "%a%a" Expr.pp_unop op (pp_expr_level 4) e
  | Binary (op, a, b) ->
    let mine = binop_level op in
    let body ppf () =
      Format.fprintf ppf "%a %a %a" (pp_expr_level mine) a Expr.pp_binop op (pp_expr_level (mine + 1)) b
    in
    if mine < level then Format.fprintf ppf "(%a)" body () else body ppf ()

let pp_expr ppf e = pp_expr_level 0 ppf e

let rec pp_stmt_indented indent ppf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (v, e) -> Format.fprintf ppf "%s%s = %a;" pad v pp_expr e
  | Print e -> Format.fprintf ppf "%sprint %a;" pad pp_expr e
  | Return e -> Format.fprintf ppf "%sreturn %a;" pad pp_expr e
  | If (c, t, []) ->
    Format.fprintf ppf "%sif (%a) {@\n%a@\n%s}" pad pp_expr c (pp_block (indent + 2)) t pad
  | If (c, t, f) ->
    Format.fprintf ppf "%sif (%a) {@\n%a@\n%s} else {@\n%a@\n%s}" pad pp_expr c (pp_block (indent + 2)) t
      pad
      (pp_block (indent + 2))
      f pad
  | While (c, b) ->
    Format.fprintf ppf "%swhile (%a) {@\n%a@\n%s}" pad pp_expr c (pp_block (indent + 2)) b pad
  | Do_while (b, c) ->
    Format.fprintf ppf "%sdo {@\n%a@\n%s} while (%a);" pad (pp_block (indent + 2)) b pad pp_expr c

and pp_block indent ppf stmts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n")
    (pp_stmt_indented indent) ppf stmts

let pp_stmt ppf stmt = pp_stmt_indented 0 ppf stmt

let pp_func ppf f =
  Format.fprintf ppf "function %s(%s) {@\n%a@\n}" f.name (String.concat ", " f.params) (pp_block 2)
    f.body

let pp_program ppf funcs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n@\n") pp_func ppf funcs

let to_string p = Format.asprintf "%a" pp_program p
