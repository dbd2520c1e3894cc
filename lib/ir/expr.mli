(** Right-hand-side expressions of the intermediate representation.

    Following the setting of the paper, every instruction has the shape
    [v := e] where [e] applies at most one operator.  Expressions are the
    objects PRE reasons about: two syntactically equal expressions are the
    same "computation" wherever they occur. *)

(** An atomic operand. *)
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
  | And  (** logical conjunction over truthiness: nonzero is true *)
  | Or  (** logical disjunction over truthiness: nonzero is true *)

type unop =
  | Neg  (** arithmetic negation *)
  | Not  (** logical negation: 0 becomes 1, anything else 0 *)

type t =
  | Atom of operand  (** a bare copy; never a PRE candidate *)
  | Unary of unop * operand
  | Binary of binop * operand * operand

(** Structural equality. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val hash : t -> int

(** Variables read by the expression. *)
val vars : t -> string list

(** [reads_var e v] holds when evaluating [e] reads [v]. *)
val reads_var : t -> string -> bool

(** [is_candidate e] holds when [e] is a PRE candidate: it applies an
    operator (copies of atoms carry no computation to eliminate). *)
val is_candidate : t -> bool

(** [is_commutative op] holds for operators where operand order does not
    affect the value. *)
val is_commutative : binop -> bool

(** [canonical e] orders the operands of commutative operators so that
    [a+b] and [b+a] denote the same computation. *)
val canonical : t -> t

(** Denotational semantics of the operators, shared by the interpreter and
    the constant folder.  Arithmetic is total: division and modulo by zero
    yield 0; comparisons yield 0 or 1. *)
val eval_binop : binop -> int -> int -> int

val eval_unop : unop -> int -> int

(** [add_to_buffer buf e] appends the textual form of [e] ([a + b], [-a],
    [42]); it is the one printer behind {!to_string} and {!pp}. *)
val add_to_buffer : Buffer.t -> t -> unit

(** Appends an operand: the variable name, or the constant in decimal. *)
val add_operand : Buffer.t -> operand -> unit

val pp_operand : Format.formatter -> operand -> unit
val pp_binop : Format.formatter -> binop -> unit
val pp_unop : Format.formatter -> unop -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
