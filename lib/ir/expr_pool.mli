(** Dense numbering of the PRE-candidate expressions of a function.

    Bit-vector data-flow solves all expressions at once; the pool assigns
    each distinct candidate expression (after commutative canonicalization)
    a stable index in [\[0, size)], which is the bit position used by every
    analysis in this library. *)

type t

(** [create ?size ()]: room for [size] expressions before the pool grows. *)
val create : ?size:int -> unit -> t

(** [add pool e] registers candidate expression [e] (canonicalized) and
    returns its index; registering an equal expression again returns the
    same index.  Raises [Invalid_argument] on non-candidates (atoms). *)
val add : t -> Expr.t -> int

(** [extend pool es] is a new pool holding [pool]'s expressions at their
    indices, then those of [es] it lacks, in order.  [pool] is not
    written. *)
val extend : t -> Expr.t list -> t

(** [index pool e] is the index of [e] if registered. *)
val index : t -> Expr.t -> int option

(** As {!index} but raises [Not_found]: no option allocation, for
    per-instruction lookups on the serving hot path. *)
val index_exn : t -> Expr.t -> int

(** [expr pool i] is the expression with index [i]. *)
val expr : t -> int -> Expr.t

(** Number of registered expressions. *)
val size : t -> int

(** [iter f pool] applies [f index expr] for every registered expression in
    index order. *)
val iter : (int -> Expr.t -> unit) -> t -> unit

(** All registered expressions in index order. *)
val to_list : t -> (int * Expr.t) list

(** Indices of expressions that read variable [v], ascending.  The first
    query fills a table for every variable in one pass over the
    expressions (refilled when the pool has grown since), so each query is
    O(1) after it. *)
val reading : t -> string -> int list
