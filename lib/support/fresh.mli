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

(** [prefix_iter iter seed] is [prefix] over the names [iter f] passes to
    [f], for callers that can walk their names without listing them. *)
val prefix_iter : ((string -> unit) -> unit) -> string -> string

(** [create ~existing seed] is a mint whose names all start with
    [prefix ~existing seed]. *)
val create : existing:string list -> string -> t

(** The next fresh name. *)
val mint : t -> string

(** The prefix in use. *)
val prefix_of : t -> string
