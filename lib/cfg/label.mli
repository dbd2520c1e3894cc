(** Basic-block labels.

    Labels are dense small integers allocated by a {!Cfg.t}; they index the
    per-block arrays used by the data-flow solver. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Renders as ["B<n>"]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Appends {!to_string}'s rendering without allocating. *)
val add_to_buffer : Buffer.t -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
