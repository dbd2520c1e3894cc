(** Straight-line instructions of the intermediate representation.

    Control flow is represented separately, by basic-block terminators in
    the CFG library; a block body is a list of these instructions. *)

(** An opaque effectful operation from an external frontend (function
    call, print with multiple arguments, memory traffic, ...).  The
    optimizer treats it as a black box: it is never a motion candidate,
    and it conservatively kills every expression reading a variable it
    touches.  [eff_dest] carries the destination together with its
    frontend type token (e.g. ["int"], ["bool"], ["ptr<int>"]) so the
    instruction round-trips through printers losslessly. *)
type effect_ = {
  eff_op : string;
  eff_dest : (string * string) option;
  eff_args : Expr.operand list;
  eff_funcs : string list;
}

type t =
  | Assign of string * Expr.t  (** [v := e] *)
  | Print of Expr.operand  (** observable output; anchors interpreter equivalence checks *)
  | Effect of effect_  (** opaque effectful instruction; never a candidate *)

(** [defs i] is the variable defined by [i], if any. *)
val defs : t -> string option

(** Variables read by [i]. *)
val uses : t -> string list

(** The candidate expression computed by [i], if any. *)
val candidate : t -> Expr.t option

(** [kills i] is the set of variables whose expressions must be treated
    as clobbered after [i]: the definition for [Assign]/[Print], and the
    destination plus every operand variable for [Effect] (an opaque call
    or store may alias anything it reads).  Over-approximate but sound:
    extra kills only suppress motion. *)
val kills : t -> string list

(** [modifies i v] holds when [i] writes [v]. *)
val modifies : t -> string -> bool

val equal : t -> t -> bool

(** [add_to_buffer buf i] appends the textual form of [i]
    ([x := a + b], [print x], [do call @f a -> d int]); {!to_string} and
    {!pp} are built on it. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
