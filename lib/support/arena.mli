(** Per-request scratch arena: size-bucketed bump-cursor pools of the
    ready-made objects the LCM cascade needs (whole [Bitvec.t] records,
    int/bool scratch, [Bitvec.t] slot arrays).  Checked out at engine
    admission for a (blocks × exprs) shape class; a warm checkout is a
    cursor bump plus in-place re-initialization and allocates nothing.
    Everything is reclaimed wholesale by {!reset} (cursor rewind) in a
    [Fun.protect] finalizer — there is no per-object free, so a chaos
    panic mid-cascade cannot leak slots.

    An arena is single-owner (one request, one domain) and unlocked; the
    per-domain pooling of arenas themselves lives in [Pool.Scratch]. *)

type t

(** Cells that are never cleared, for marks and small counts: each
    checkout takes a fresh [mark] from its arena, and cell [i] is set in
    this checkout exactly when {!is_set} says so, so a checkout costs no
    pass over the cells.  Read and write them through the functions below
    only. *)
type stamps = private { cells : int array; mutable mark : int }

(** A fresh arena with empty pools. *)
val create : unit -> t

(** [bitvec a n] is an [n]-bit vector, all-zero: a recycled record rebound
    in place when the pool is warm, a fresh bucketed one otherwise.  Valid
    until the next {!reset}. *)
val bitvec : t -> int -> Bitvec.t

(** As {!bitvec} but all-one. *)
val bitvec_full : t -> int -> Bitvec.t

(** [int_array a n] is an int array with (at least) [n] cells, the first
    [n] zeroed.  Callers must index below their requested [n] only. *)
val int_array : t -> int -> int array

(** [bool_array a n]: as {!int_array} with [false] cells. *)
val bool_array : t -> int -> bool array

(** [raw_int_array a n] is an int array with (at least) [n] cells holding
    whatever the last checkout left: for stacks and queues that write a
    cell before reading it. *)
val raw_int_array : t -> int -> int array

(** [stamps_of a n] is a {!stamps} of (at least) [n] cells, none set. *)
val stamps_of : t -> int -> stamps

val is_set : stamps -> int -> bool
val set : stamps -> int -> unit
val clear : stamps -> int -> unit

(** The count stored at a cell in this checkout, 0 when it was not set. *)
val count : stamps -> int -> int

(** Set a cell with a count (saturating at 2{^20} - 1). *)
val set_count : stamps -> int -> int -> unit

(** [vec_array a n] is a [Bitvec.t array] of capacity >= [n] whose first
    [n] slots hold a shared zero-width dummy vector. *)
val vec_array : t -> int -> Bitvec.t array

(** [pages a ~words count] is a spine of (at least) [count] pages of
    [words] words each, parked together: the storage of a
    {!Rowtab.create} table.  The pages hold whatever the last checkout
    left; the caller writes every row it reads. *)
val pages : t -> words:int -> int -> int array array

(** Return every loaned object to its pool by rewinding the cursors.
    Does not shrink capacity — the point is that the *next* request's
    checkouts all hit warm pools. *)
val reset : t -> unit

(** Total words of storage the arena currently owns (free + loaned); the
    steady-state footprint of a shape class. *)
val retained_words : t -> int

(** Lifetime number of checkouts, and how many of those had to
    heap-allocate because the pool was cold.  In steady state [misses]
    stops growing — that is the zero-allocation property. *)
val checkouts : t -> int

val misses : t -> int

(** {2 Optional-arena helpers}

    Solve entry points take [?scratch:Arena.t] and allocate through these:
    [None] falls back to plain heap allocation, keeping the historical
    allocating APIs thin wrappers with identical behavior. *)

val alloc : t option -> int -> Bitvec.t
val alloc_full : t option -> int -> Bitvec.t
val alloc_copy : t option -> Bitvec.t -> Bitvec.t
val alloc_int : t option -> int -> int array
val alloc_bool : t option -> int -> bool array
val alloc_raw_int : t option -> int -> int array
val alloc_stamps : t option -> int -> stamps
val alloc_vec : t option -> int -> Bitvec.t array
