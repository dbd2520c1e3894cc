(** Dense, fixed-width bit vectors.

    The data-flow analyses in this library solve one equation system for all
    expressions of a program simultaneously; a bit vector holds one boolean
    per expression.  Vectors are mutable; the [*_into] operations overwrite
    their destination and report whether it changed, which is exactly the
    signal an iterative worklist solver needs. *)

type t

(** [create n] is a vector of [n] bits, all [false]. *)
val create : int -> t

(** [create_full n] is a vector of [n] bits, all [true]. *)
val create_full : int -> t

(** [words_for n] is the number of storage words an [n]-bit vector spans —
    the minimum capacity a buffer passed to {!of_buffer} must have. *)
val words_for : int -> int

(** [of_buffer buf n] wraps [buf] as an [n]-bit vector *without copying*;
    the used prefix ([words_for n] words) is cleared to all-zeroes, words
    beyond it are left untouched and ignored by every operation.  Raises
    [Invalid_argument] when [buf] is too small.  This is how the arena
    recycles size-bucketed buffers across near-miss shapes. *)
val of_buffer : int array -> int -> t

(** As {!of_buffer} but the used prefix is set to all-ones. *)
val of_buffer_full : int array -> int -> t

(** [reinit v n] rebinds [v] to [n] bits over its existing buffer and
    clears the used prefix — the in-place analogue of {!of_buffer}, used by
    the arena to recycle whole vector records so a steady-state checkout
    allocates nothing.  Raises [Invalid_argument] when the buffer is too
    small.  Any alias of [v] observes the new width. *)
val reinit : t -> int -> unit

(** As {!reinit} but the used prefix is set to all-ones. *)
val reinit_full : t -> int -> unit

(** {2 Row access}

    Word kernels (the data-flow solver's visit, the LCM cascade's fused
    equations) treat a vector as a row of storage words and combine rows
    with plain [land]/[lor]/[lnot] instead of one call per set operation.

    [words v] is [v]'s backing storage, shared, not copied.  Word [w] holds
    bits [w * bits_per_word ..]; only the first [words_for (length v)]
    words are meaningful (the array may be longer: see {!of_buffer}).  The
    unused high bits of the last word are zero, and a kernel that writes
    words must keep them zero — combining rows that obey this with
    [land], [lor] and [land lnot] does. *)
val words : t -> int array

(** [ntz x] is the number of trailing zero bits of the non-zero word [x]:
    the index of its lowest set bit. *)
val ntz : int -> int

(** [of_words src ~off n] is a fresh [n]-bit vector holding the words
    [src.(off) .. src.(off + words_for n - 1)] — one row of a flat
    row-major word matrix.  The source words must obey the zero-high-bits
    rule of {!words}. *)
val of_words : int array -> off:int -> int -> t

(** Number of bits. *)
val length : t -> int

(** [get v i] is bit [i].  Raises [Invalid_argument] when out of range. *)
val get : t -> int -> bool

(** [set v i b] assigns bit [i]. *)
val set : t -> int -> bool -> unit

(** A fresh copy. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with [src]; returns [true] when [dst]
    changed.  Both vectors must have the same length. *)
val blit : src:t -> dst:t -> bool

(** Structural equality of contents (lengths must match). *)
val equal : t -> t -> bool

(** [is_empty v] holds when no bit is set. *)
val is_empty : t -> bool

(** [fill v b] sets every bit to [b]. *)
val fill : t -> bool -> unit

(** Number of set bits. *)
val count : t -> int

(** [union_into ~into v] computes [into ∪ v] in place; returns [true] when
    [into] changed. *)
val union_into : into:t -> t -> bool

(** [inter_into ~into v] computes [into ∩ v] in place; returns [true] when
    [into] changed. *)
val inter_into : into:t -> t -> bool

(** [diff_into ~into v] computes [into \ v] in place; returns [true] when
    [into] changed. *)
val diff_into : into:t -> t -> bool

(** Pure binary operations; operands must have equal lengths. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

(** Complement within the vector's width. *)
val complement : t -> t

(** [subset a b] holds when every bit of [a] is also set in [b]. *)
val subset : t -> t -> bool

(** [iter_true f v] applies [f] to the index of every set bit, ascending. *)
val iter_true : (int -> unit) -> t -> unit

(** [fold_true f v acc] folds over indices of set bits, ascending. *)
val fold_true : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Indices of set bits, ascending. *)
val to_list : t -> int list

(** [of_list n is] is an [n]-bit vector with exactly the bits in [is] set. *)
val of_list : int -> int list -> t

(** Bits per storage word ([Sys.int_size]): word [w] of {!words} holds
    bits [w * bits_per_word ..]. *)
val bits_per_word : int

(** Renders as a ["{1, 4, 7}"]-style set. *)
val pp : Format.formatter -> t -> unit
