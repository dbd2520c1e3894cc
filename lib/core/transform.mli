(** Applying a code-motion decision to a graph.

    Every PRE algorithm in this repository — LCM, BCM, the node-based
    variants, and the baselines — reduces to the same four kinds of edits,
    gathered in a {!spec}:

    - {b edge insertions}: put [h := e] on a flow edge (the edge is split
      with a fresh block);
    - {b entry insertions}: put [h := e] at the very beginning of a block
      (used by the node-based formulation);
    - {b exit insertions}: put [h := e] at the end of a block, before its
      terminator (used by the Morel–Renvoise baseline);
    - {b deletions}: replace the upwards-exposed occurrence [v := e] of a
      block by [v := h];
    - {b copies}: after the downwards-exposed occurrence [v := e] of a
      block, add [h := v] so that [h] carries the value for later redundant
      uses.

    [apply] performs the edits on a copy of the graph and validates the
    result. *)

module Bitvec = Lcm_support.Bitvec
module Label = Lcm_cfg.Label

type spec = {
  algorithm : string;  (** name recorded in reports *)
  pool : Lcm_ir.Expr_pool.t;
  temp_names : string array;  (** one per expression index *)
  rank : int array;
      (** the order an edge's insertions are emitted in: expression index
          [i] goes before [j] when [rank.(i) < rank.(j)].  Empty: index
          order, as for every pool numbered in order of first occurrence;
          an incrementally extended pool ({!Lcm_edge.analyze_incr}) ranks
          its indices by first occurrence instead. *)
  edge_inserts : ((Label.t * Label.t) * Bitvec.t) list;
  entry_inserts : (Label.t * Bitvec.t) list;
  exit_inserts : (Label.t * Bitvec.t) list;
  deletes : (Label.t * Bitvec.t) list;
  copies : (Label.t * Bitvec.t) list;
}

type report = {
  spec : spec;
  num_edge_insertions : int;  (** one per (edge, expression) pair *)
  num_entry_insertions : int;
  num_exit_insertions : int;
  num_deletions : int;
  num_copies : int;
  split_blocks : ((Label.t * Label.t) * Label.t) list;
      (** original edge mapped to the block created on it *)
}

(** An empty decision (the identity transformation). *)
val identity_spec : Lcm_ir.Expr_pool.t -> string -> spec

(** [apply g spec] edits a copy of [g].  [simplify] (default [false])
    additionally merges straight-line block pairs afterwards.  Raises
    [Failure] when the spec names an occurrence that does not exist — a
    spec produced from a sound analysis never does. *)
val apply : ?simplify:bool -> Lcm_cfg.Cfg.t -> spec -> Lcm_cfg.Cfg.t * report

(** Human-readable summary of a report. *)
val pp_report : Format.formatter -> report -> unit
