(** The graph builder both text readers emit into.

    A reader allocates labels ([0] is the entry, [1] the exit, fresh ones
    from [2] in allocation order), starts a block, and emits its
    instructions one by one, naming variables by their number in the
    builder's {!Vars} table — interned straight from the source span, so
    each distinct name is allocated once — and operands by their code
    ({!Vars.var_code}, {!const}).  Alongside each instruction the builder
    records the block's events ({!Cfg.events}) with candidates keyed by
    operator and operand codes.  Terminators are set by label once the
    reader has resolved its own label names.

    {!finish} assembles the graph in one step ({!Cfg.assemble}): one DFS
    decides reachability (and, with [prune], drops what it does not
    reach), the structural facts {!Validate} tests are checked from the
    terminators and that DFS, candidates are numbered in label order —
    the pool {!Cfg.candidate_pool} would build — and the graph is born
    validated with its numbering memo and every block's event memo
    filled. *)

type t

(** A graph under construction: the entry [Goto 1], the exit [Halt], both
    empty.  [blocks] and [vars] size its tables ahead, so that a reader
    that can estimate them from its input does not grow them block by
    block. *)
val create : ?blocks:int -> ?vars:int -> unit -> t

val entry : Label.t
val exit_label : Label.t

(** The variable table. *)
val vars : t -> Vars.t

(** [var b s pos len] is the number of the variable named by the [len]
    bytes of [s] at [pos], interned if new. *)
val var : t -> string -> int -> int -> int

(** The number of a variable given by name, interned if new. *)
val var_of_name : t -> string -> int

val var_name : t -> int -> string

(** The operand code of a constant. *)
val const : t -> int -> int

(** The shared operand node of an operand code. *)
val operand : t -> int -> Lcm_ir.Expr.operand

(** A fresh label, its block empty and halting until set. *)
val new_block : t -> Label.t

(** [start b l]: the instructions emitted next go to block [l], whose
    previous contents (if any) are dropped. *)
val start : t -> Label.t -> unit

(** Instructions, appended to the started block.  [dst] is a variable
    number, operands are codes. *)
val copy : t -> int -> int -> unit  (** [copy b dst a]: [dst := a] *)

val unary : t -> int -> Lcm_ir.Expr.unop -> int -> unit
val binary : t -> int -> Lcm_ir.Expr.binop -> int -> int -> unit
val print : t -> int -> unit

(** [effect b op dest args funcs]: an opaque effect; [dest] is a variable
    number with its type token, [args] are operand codes. *)
val effect : t -> string -> (int * string) option -> int list -> string list -> unit

val set_term : t -> Label.t -> Cfg.terminator -> unit

(** The assembled graph, or the structural issues in {!Validate}'s order
    and words.  The builder must not be used afterwards. *)
val finish : t -> name:string -> prune:bool -> (Cfg.t, string list) result
