(** The variable table of one graph: every variable name numbered densely
    in order of first sight, each name and its [Var] operand node
    allocated once.

    A reader interns a name straight from a span of its source text
    ({!intern_sub}): a name seen before costs a hash and an in-place byte
    comparison, and allocates nothing.  Constants are numbered too, in a
    separate dense space, so that an operand — variable or constant — has
    a small integer {e code}: [2 v] for variable [v], [2 c + 1] for
    constant [c].  Candidate expressions are keyed by their operator and
    operand codes (see {!Cfg.numbering}).

    A table only grows; numbers never change.  It is not synchronised:
    one domain builds it, after which it is read-only. *)

type t

(** [create ?size ()]: room for [size] names before the table grows. *)
val create : ?size:int -> unit -> t

(** [intern_sub t s pos len] is the number of the name spelt by the [len]
    bytes of [s] at [pos], added if new. *)
val intern_sub : t -> string -> int -> int -> int

(** [intern t name] is [intern_sub t name 0 (String.length name)]. *)
val intern : t -> string -> int

(** The number of [name]; [-1] when it is not in the table. *)
val find : t -> string -> int

(** Number of variables. *)
val size : t -> int

(** The name of a variable number. *)
val name : t -> int -> string

(** {2 Operand codes} *)

(** The code of variable number [v]: [2 v]. *)
val var_code : int -> int

(** The code of constant [n], numbering it if new. *)
val const_code : t -> int -> int

(** The code of an operand, interning a variable or constant if new. *)
val operand_code : t -> Lcm_ir.Expr.operand -> int

(** The shared operand node of a code. *)
val code_operand : t -> int -> Lcm_ir.Expr.operand

(** The shared [Expr.Atom] node of an operand code: every copy of the
    same operand reuses it. *)
val code_atom : t -> int -> Lcm_ir.Expr.t
