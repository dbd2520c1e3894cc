(** Structural well-formedness checks for control-flow graphs.

    Run after construction and after every transformation in tests; a
    transformation that silently corrupts the graph is caught here rather
    than as a mysterious wrong answer downstream. *)

type issue = string

(** All structural problems found, empty when well-formed:
    - every terminator target names a live block;
    - only the exit block halts, and the exit block halts;
    - the entry block has no predecessors;
    - every live block is reachable from the entry (exit excepted:
      an infinite loop legitimately strands it);
    - branch conditions are atoms (guaranteed by the types, but conditions
      must reference defined variables: checked approximately as
      "some instruction or parameter may define them", omitted here).

    Every fact is about shape, so a passing check marks the graph
    ({!Cfg.mark_validated}) and a marked graph answers [[]] in O(1)
    until its shape version moves. *)
val check : Cfg.t -> issue list

(** Raises [Failure] listing the issues when [check] is non-empty. *)
val check_exn : Cfg.t -> unit
