(** In-place edits of a control-flow graph, with the dirty seed for
    incremental re-solving.

    The serving protocol's [delta] op expresses a change to a previously
    submitted graph as a list of these edits.  [apply] mutates the graph,
    re-validates it, and returns the labels whose local predicates or meet
    inputs the patch may have changed — exactly the seed
    {!Lcm_dataflow.Solver.restart} needs to confine re-iteration to the
    rows the patch changes:

    - [Set_instrs l]: the block's transfer changed → [l];
    - [Set_term l]: the block's successors changed → [l] plus its old and
      new successors (their predecessor sets changed);
    - [Add_block]: the new block plus its successors.

    Edits apply in order; a terminator may only name blocks that exist by
    the time it applies, so add blocks before wiring edges to them. *)

exception Error of string

type edit =
  | Set_instrs of Label.t * Lcm_ir.Instr.t list  (** replace a block's body *)
  | Set_term of Label.t * Cfg.terminator  (** rewire a block's out-edges *)
  | Add_block of Lcm_ir.Instr.t list * Cfg.terminator
      (** append a fresh block (label = the graph's next, i.e.
          [Cfg.label_bound] before the edit) *)

(** [apply g edits] mutates [g] and returns the dirty seed (sorted,
    deduplicated).  Raises {!Error} — naming an unknown block, halting
    outside the exit, or leaving the graph structurally invalid
    ({!Validate.check}) — with [g] left in an unspecified state; callers
    that must keep the pre-patch graph apply to a {!Cfg.copy}. *)
val apply : Cfg.t -> edit list -> Label.t list
