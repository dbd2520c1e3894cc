(** Minimal JSON, sufficient for the serving protocol.

    The repository deliberately has no third-party JSON dependency; the
    protocol (docs/PROTOCOL.md) only needs objects, arrays, strings,
    numbers, booleans and null, so this module implements exactly that.
    Printing preserves object key order (frames are diffed in golden
    tests), and numbers that are integral print without a decimal point. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of int * (Bytes.t -> int -> unit)
      (** an already-encoded value of the given length in bytes, which the
          function writes into a buffer at an offset; {!to_string} writes
          it straight into its result.  {!parse} never returns one, and the
          function makes the tree unfit for structural comparison. *)

exception Parse_error of string

(** Parse one JSON document; trailing whitespace is allowed, any other
    trailing content raises {!Parse_error}.  The tree reader over the
    {!cursor} below. *)
val parse : string -> t

(** {2 Pull cursor}

    The scanner under {!parse}, for readers that consume a document
    without building its tree: they walk the values they need and
    {!skip} the rest.  Every primitive raises {!Parse_error} with the
    message {!parse} gives for the same input, so a reader that consumes
    the whole document and then calls {!finish} accepts and rejects
    exactly what {!parse} does, and reports the same first error. *)

type cursor

(** What the next value is, judged by its first byte. *)
type kind =
  | K_null
  | K_bool
  | K_number
  | K_string
  | K_list
  | K_obj

(** A cursor at the start of a document. *)
val cursor : string -> cursor

(** The kind of the next value, consuming only whitespace.  Raises on end
    of input and on a byte no value starts with. *)
val kind : cursor -> kind

(** [fields c f acc] consumes an object, folding [f] over its members:
    [f acc c] is called with the cursor at a member's value and must
    consume exactly that value.  Until it does, {!key} and {!key_is}
    describe the member's key.  Threading state through [acc] lets [f]
    be a closed function, allocated once. *)
val fields : cursor -> ('a -> cursor -> 'a) -> 'a -> 'a

(** The current member's key (see {!fields}). *)
val key : cursor -> string

(** [key_is c k] is [key c = k], compared in place without allocating
    when the key has no escapes. *)
val key_is : cursor -> string -> bool

(** [items c f acc] consumes an array, folding [f] over its elements as
    {!fields} does over members. *)
val items : cursor -> ('a -> cursor -> 'a) -> 'a -> 'a

(** Consume a string, unescaped. *)
val string : cursor -> string

(** [string_span c] consumes a string without allocating when it has no
    escapes: its decoded text is then the {!span_len} bytes of
    {!span_src} at {!span_at} (the source itself, or the decoded literal
    when it had escapes), until the next [string_span]. *)
val string_span : cursor -> unit

val span_src : cursor -> string
val span_at : cursor -> int
val span_len : cursor -> int

(** [span_is c s]: the last {!string_span} read [s] (compared in place). *)
val span_is : cursor -> string -> bool

(** The last {!string_span}'s text, allocated. *)
val span_string : cursor -> string

(** {3 Raw access}

    For a reader with a fast path of its own over the bytes: [source c]
    is the document, [position c] the offset of the next byte to read, and
    [set_position c pos] moves the cursor to an offset the reader has
    scanned up to (or back to one it held), keeping every other promise. *)

val source : cursor -> string
val position : cursor -> int
val set_position : cursor -> int -> unit

(** Consume [true] or [false]. *)
val bool : cursor -> bool

(** Consume a number: [Some n] when {!parse} reads it as [Int n], [None]
    when it reads it as a [Float]. *)
val int : cursor -> int option

(** Consume one value of any kind, checking its syntax without building
    it. *)
val skip : cursor -> unit

(** Accept only whitespace up to the end of the document. *)
val finish : cursor -> unit

(** Compact (single-line) rendering; never emits newlines (provided every
    {!Raw} value is compact), so a printed document is a valid frame. *)
val to_string : t -> string

(** [escape_into buf s] appends [s] escaped as the inside of a JSON string
    literal, as {!to_string} prints a [String].  Escaping is byte-wise, so
    the escape of a concatenation is the concatenation of the escapes. *)
val escape_into : Buffer.t -> string -> unit

(** The inverse of {!escape_into} on a string it produced:
    [unescaped_length e] is the length of the string [e] escapes, and
    [unescape_into e out pos] writes that string into [out] at [pos] and
    returns the position after it. *)
val unescaped_length : string -> int

val unescape_into : string -> Bytes.t -> int -> int

(** {2 Accessors} — all total; [member] on a non-object is [None]. *)

val member : string -> t -> t option
val to_int_opt : t -> int option

(** Accepts [Int] and integral [Float]s. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
