(** Fresh-name generation that cannot collide with existing names.

    Several passes introduce new variables (PRE temporaries, local-value-
    numbering holders, parallel-copy scratch, SSA versions); each needs a
    prefix guaranteed not to clash with anything already in the program.
    [prefix] picks one by extending the seed with underscores until no
    existing name starts with it; a {!t} then mints [prefix0], [prefix1],
    ... *)

type t

(** [prefix ~existing seed] is the shortest extension of [seed] (by
    appended underscores) that no name in [existing] starts with. *)
val prefix : existing:string list -> string -> string

(** [run seed v] is the number of underscores the prefix must append to
    [seed] so that [v] does not start with it: [0] when [v] does not start
    with [seed], else one more than the underscores that follow [seed] in
    [v].  The prefix of a set of names is [extend seed] of the largest
    [run] over them. *)
val run : string -> string -> int

(** [extend seed n] is [seed] followed by [n] underscores. *)
val extend : string -> int -> string

(** [create ~existing seed] is a mint whose names all start with
    [prefix ~existing seed]. *)
val create : existing:string list -> string -> t

(** The next fresh name. *)
val mint : t -> string
