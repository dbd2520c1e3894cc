(** Tables of bit-vector rows solved in place, fresh or copy-on-write,
    with the worklist and lift bookkeeping of a restartable fixpoint.

    The tail of the LCM cascade ({!Lcm_edge}) and the temporaries'
    liveness ({!Copy_analysis}) keep their rows in label- or edge-indexed
    flat word matrices: row [i] is the [nw] words at [i * nw].  A
    from-scratch solve writes a fresh matrix (on an arena when it has
    one); a restart writes a copy-on-write table over the matrix a capture
    holds: it reads the captured matrix until its first write copies it,
    so the captured matrix is never written, and a table whose rows all
    end where they started is the captured matrix again. *)

type t

(** [fresh ~export m ~nw ~count] solves in [m] itself, [count] rows of
    [nw] words (all considered dirty; [m] may be longer, and may be arena
    storage).  [export]: {!seal} then moves the rows to an exact-size heap
    array. *)
val fresh : export:bool -> int array -> nw:int -> count:int -> t

(** [cow work base ~nw ~count] is a copy-on-write table over [base]
    (never written); its change list comes from [work]. *)
val cow : Lcm_support.Arena.t option -> int array -> nw:int -> count:int -> t

(** The current matrix (after {!seal}: the result) and the captured one
    (for a fresh table, the same).  Read-only: write through {!store},
    {!raise_bits} and {!clear_bits}. *)
val words : t -> int array

val base : t -> int array

(** [store t i acc] makes row [i] the first [nw] words of [acc]; whether
    it changed. *)
val store : t -> int -> int array -> bool

(** [differs a ao b bo nw 0]: the [nw] words of [a] at [ao] and of [b] at
    [bo] differ. *)
val differs : int array -> int -> int array -> int -> int -> int -> bool

(** [raise_bits t i mask] sets in row [i] the bits of [mask] it lacks (a
    lift toward the all-ones start of a ∩ system); [clear_bits] clears the
    bits of [mask] it has (toward the ∅ start of a ∪ system).  Whether any
    bit moved. *)
val raise_bits : t -> int -> int array -> bool

val clear_bits : t -> int -> int array -> bool

(** Finish a solve: a copy-on-write table keeps as changed only the rows
    that ended away from their captured value, and is the captured matrix
    again when none did; an exported fresh table moves to the heap. *)
val seal : t -> unit

(** After {!seal}, the rows of a copy-on-write table that changed: the
    [j]-th of [nchanged] (each once, in order of first write).  A fresh
    table lists none. *)
val nchanged : t -> int

val changed : t -> int -> int

(** Position of [x] in a (short) adjacency row, or -1. *)
val index : int array -> int -> int

(** {2 Worklist} — a FIFO ring over labels that holds each label once. *)

type queue

val queue : Lcm_support.Arena.t option -> int -> queue
val push : queue -> int -> unit
val is_empty : queue -> bool
val pop : queue -> int

(** {2 Lifts} — the stack of blocks a restart lifted, not yet propagated,
    and a word mask for the propagation. *)

type lifts = {
  stack : int array;
  on_stack : bool array;
  mutable nstack : int;
  mask : int array;
}

val lifts : Lcm_support.Arena.t option -> int -> int -> lifts

(** Put a lifted label on the stack (once). *)
val note : lifts -> int -> unit

(** Take a label off the stack; -1 when it is empty. *)
val next_lifted : lifts -> int
