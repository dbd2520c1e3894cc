(** Paged tables of bit-vector rows, fresh or copy-on-write, with the
    worklist and lift bookkeeping of a restartable fixpoint.

    Every per-block or per-edge predicate of the LCM cascade is one such
    table: the local predicates ({!Lcm_dataflow.Local}), the flow rows of
    the AVAIL/ANTIC systems and of any other {!Lcm_dataflow.Solver}
    problem, and EARLIEST, LATERIN and the temporaries' liveness.  Row [i]
    holds [nw] words, the row's bits as {!Bitvec.words} lays them out (high
    bits of the last word zero).

    {b Paging.}  Rows are stored in pages of a power-of-two number of rows,
    at most 256 words each ([Max_young_wosize]; one row per page when a
    row alone is wider) and no more rows than the table has, hung off a
    spine: a page is a minor-heap block, and the spine of a 1,000-row
    table of 4-word rows is 16 words.

    {b Ownership.}  A table made by {!create} owns its pages and is written
    in place.  A table made by {!cow} over a sealed table reads that
    table's pages until it writes: its first write copies the spine, and
    the first write to a page copies that page, so the table it was made
    over is never written.  {!seal} ends the writes: the pages none of
    whose rows ended changed go back to being the base's, the rows that
    did are listed ({!nchanged}, {!changed}), and the table lets go of its
    base (it reads as its own base from then on), so a capture of sealed
    tables pins no earlier generation.  A sealed table is never written
    again, and may be the base of any number of later {!cow} tables.

    {b Arenas.}  With an arena, {!create}'s pages and spine, and the
    change list of {!seal}, are checked out of it and valid until its next
    reset; without one they come from the heap.  The pages a {!cow} table
    copies always come from the heap, so a restart's result may be kept
    across resets whatever arena backed its bookkeeping. *)

(** Row [i] is the [nw] words at [(i land (1 lsl shift - 1)) * nw] of
    page [spine.(i lsr shift)] ({!page} and {!off}).  The fields are
    readable so that a word kernel in another module can locate a row
    without a call; only this module writes them. *)
type t = private {
  nw : int;
  shift : int;  (** log2 of the rows per page *)
  count : int;
  mutable spine : int array array;
  mutable base : int array array;
  mutable base_count : int;
  mutable cow : bool;
  work : Arena.t option;
  mutable changed : int array;
  mutable nchanged : int;
}

(** [create work ~nw ~count init] is a fresh table of [count] rows, each
    the first [nw] words of [init]. *)
val create : Arena.t option -> nw:int -> count:int -> int array -> t

(** [cow work prev ~count init] is a copy-on-write table over the sealed
    table [prev], with [count >= count prev] rows: the rows [prev] has read
    as its rows, the others start as [init] (and count as changed).  Its
    change list comes from [work]. *)
val cow : Arena.t option -> t -> count:int -> int array -> t

(** [page t i] and [off t i] locate row [i]: its words are
    [page t i].(off t i) .. [page t i].(off t i + nw - 1).  [i] must be
    below [count t]; it is not checked.  The maker of a fresh table may
    write its rows there in place; every other write goes through
    {!store} and {!lift}, which a {!cow} table needs. *)
val page : t -> int -> int array

val off : t -> int -> int

(** The row the table started from, for an unsealed {!cow} table ([off]
    locates it in [base_page]), when [has_base t i]; for a fresh or sealed
    table the row itself. *)
val base_page : t -> int -> int array

val has_base : t -> int -> bool

(** [store t i acc] makes row [i] the first [nw] words of [acc]; whether
    it changed. *)
val store : t -> int -> int array -> bool

(** [lift t i mask ~up] moves the bits of [mask] in row [i] to a
    system's start: sets those it lacks when [up] (the all-ones start of a
    ∩ system), clears those it has otherwise (the ∅ start of a ∪ system).
    Whether any bit moved. *)
val lift : t -> int -> int array -> up:bool -> bool

(** [differs a ao b bo nw 0]: the [nw] words of [a] at [ao] and of [b] at
    [bo] differ. *)
val differs : int array -> int -> int array -> int -> int -> int -> bool

(** End a {!cow} table's writes (see above); a no-op on a fresh table. *)
val seal : t -> unit

(** After {!seal}, the rows of a {!cow} table that ended away from its
    base, or are new: the [j]-th of [nchanged], ascending (valid until the
    reset of the arena the table was made with).  A fresh table lists
    none. *)
val nchanged : t -> int

val changed : t -> int -> int

(** [to_bitvec t i n] copies row [i] out as an [n]-bit vector (for
    consumers off the word kernels); [Invalid_argument] when [i] is not a
    row. *)
val to_bitvec : t -> int -> int -> Bitvec.t

(** [of_rows n rows] is a heap table holding the [n]-bit [rows];
    [Invalid_argument] when a row has another width. *)
val of_rows : int -> Bitvec.t array -> t

(** Position of [x] in a (short) adjacency row, or -1. *)
val index : int array -> int -> int

(** {2 Worklist} — a FIFO ring over labels that holds each label once. *)

type queue

val queue : Arena.t option -> int -> queue
val push : queue -> int -> unit
val is_empty : queue -> bool
val pop : queue -> int

(** {2 Lifts} — the stack of blocks a restart lifted, not yet propagated,
    and a word mask for the propagation. *)

type lifts = {
  stack : int array;
  on_stack : Arena.stamps;
  mutable nstack : int;
  mask : int array;
}

val lifts : Arena.t option -> int -> int -> lifts

(** Put a lifted label on the stack (once). *)
val note : lifts -> int -> unit

(** Take a label off the stack; -1 when it is empty. *)
val next_lifted : lifts -> int
