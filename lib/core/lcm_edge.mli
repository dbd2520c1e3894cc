(** Lazy Code Motion, edge-insertion formulation on basic blocks.

    This is the practical reformulation of the paper's algorithm on basic
    blocks with insertions on edges (Drechsler & Stadel 1993; the TOPLAS
    1994 version of the paper; GCC's [lcm.c]):

    {v
    EARLIEST(p,b) = ANTIN(b) ∩ ¬AVOUT(p) ∩ (¬TRANSP(p) ∪ ¬ANTOUT(p))
                    (the last factor is dropped when p is the entry block)
    LATERIN(b)    = ⋂ over incoming edges (p,b) of LATER(p,b);  ∅ at entry
    LATER(p,b)    = EARLIEST(p,b) ∪ (LATERIN(p) ∩ ¬ANTLOC(p))
    INSERT(p,b)   = LATER(p,b) ∩ ¬LATERIN(b)
    DELETE(b)     = ANTLOC(b) ∩ ¬LATERIN(b)
    v}

    Laziness — inserting as late as possible — is what keeps temporary
    lifetimes minimal; see {!Bcm_edge} for the busy (earliest) placement
    that this improves on.  Copies that seed the temporary at original
    computations are decided by {!Copy_analysis}. *)

module Bitvec = Lcm_support.Bitvec
module Label = Lcm_cfg.Label

type analysis = {
  pool : Lcm_ir.Expr_pool.t;
  local : Lcm_dataflow.Local.t;
  avail : Lcm_dataflow.Avail.t;
  antic : Lcm_dataflow.Antic.t;
  earliest : Label.t * Label.t -> Bitvec.t;
  later : Label.t * Label.t -> Bitvec.t;
  laterin : Label.t -> Bitvec.t;
  insert : ((Label.t * Label.t) * Bitvec.t) list;  (** non-empty sets only *)
  delete : (Label.t * Bitvec.t) list;  (** non-empty sets only *)
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;  (** data-flow sweeps over the graph, all passes summed *)
  visits : int;
      (** transfer-function applications of AVAIL, ANTIC and LATERIN,
          summed *)
  delay_visits : int;  (** LATERIN's share of [visits] *)
  live_visits : int;  (** visits of the temporaries' liveness, which {!Copy_analysis} solves *)
  ranked : (int array * string array) option;
      (** [None] when [pool] lists the graph's candidates in order of first
          occurrence (blocks in label order, instructions in order), as
          after every from-scratch solve: index [i] is the expression of
          rank [i].  After an {!analyze_incr} whose pool gained or lost
          expressions, [Some (rank, names)]: index [i] has rank [rank.(i)]
          among the live indices ([-1] for an expression the graph no
          longer computes, whose sets are all empty) and its temporary is
          [names.(i)], the name a from-scratch solve gives that rank. *)
}

(** Solve the up-safety (AVAIL, forward) and down-safety (ANTIC,
    backward) systems, one after the other.  Shared by {!Bcm_edge}. *)
val solve_safety_systems :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  Lcm_dataflow.Local.t ->
  Lcm_dataflow.Avail.t * Lcm_dataflow.Antic.t

(** EARLIEST(p,b) for every edge of the graph, in {!Lcm_cfg.Cfg.edges}
    order, non-empty sets only: the busy placement's insertions, shared
    by {!Bcm_edge}.  [scratch] backs the sets. *)
val earliest_sets :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  Lcm_dataflow.Local.t ->
  Lcm_dataflow.Avail.t ->
  Lcm_dataflow.Antic.t ->
  ((Label.t * Label.t) * Bitvec.t) list

(** Run the analyses.  [pool] defaults to all candidate expressions of the
    graph.  [scratch] backs every analysis vector (including the returned
    sets) — results are then valid only until the arena resets. *)
val analyze :
  ?pool:Lcm_ir.Expr_pool.t ->
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  analysis

(** A captured analysis for incremental restart: the candidate pool with
    an occurrence index of it, the local predicate tables, the saved
    AVAIL/ANTIC fixpoints, and the rest of the cascade — the EARLIEST,
    LATERIN and liveness tables and the non-empty INSERT, DELETE and COPY
    sets — all on the heap, safe to retain across requests and arena
    resets.  Every table is a paged {!Lcm_support.Rowtab}.  A capture is
    never written after it is built: {!analyze_incr} returns a new one
    whose tables are copy-on-write over its [prev]'s, sharing every page
    (and set) the delta did not change.  The serving layer keeps one per
    retained graph handle. *)
type saved

(** The candidate pool a capture was solved with. *)
val saved_pool : saved -> Lcm_ir.Expr_pool.t

(** [analyze_keep g] is [analyze g] that additionally captures the rows
    {!analyze_incr} restarts from.  The captured tables come from the
    heap; [scratch] backs the worklists. *)
val analyze_keep : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> analysis * saved

(** [analyze_incr g ~prev ~dirty] re-analyzes the patched graph [g] from
    the capture saved before the patch, doing work for the changed rows
    only: the candidate pool and the ranks of its expressions are
    repatched from the [dirty] blocks' bodies and the capture's
    occurrence index (no full pool build), local rows are recomputed for
    the dirty blocks ({!Lcm_dataflow.Local.update}), the AVAIL/ANTIC
    fixpoints restart from the bits and blocks that changed
    ({!Lcm_dataflow.Solver.restart}), EARLIEST, INSERT, DELETE and COPY
    are re-derived where their inputs moved, and LATERIN and the
    temporaries' liveness restart the same way as the safety systems
    (after a shape edit, which re-indexes the edge tables, the rest of
    the cascade is solved afresh).  Every table, the occurrence index
    included, is copy-on-write over the capture's, so the restart copies
    only the pages of what changed.  The INSERT, DELETE and COPY lists
    keep their order, and a set that did not change is the captured
    vector.

    Bit indices are stable: a candidate the capture's pool lacks is
    appended as a new bit of a copy of the pool, and an expression the
    graph no longer computes keeps its bit, empty.  The analysis then
    carries the ranks ([ranked]) that make {!spec}'s program
    byte-identical to one from a from-scratch [analyze g]; on the ranked
    bits every row is the from-scratch row.  [scratch] backs the
    worklists and bookkeeping (without it one arena is checked out for
    the whole restart).  [dirty] is {!Lcm_cfg.Patch.apply}'s seed.
    Returns the analysis, a new capture, and the number of blocks whose
    AVAIL or ANTIC rows changed (max over the two systems).  [None] —
    callers fall back to {!analyze_keep} — when the patch adds a
    candidate that reads a variable the capture's numbering lacks, or
    adds one and also edits the shape, outgrows the rows' width in words
    (the from-scratch solve then compacts the dead bits), or meets a
    block that cannot reach the exit (where an appended all-zero column
    need not be the old fixpoint).  [prev] is left as it was either way.
    Raises [Invalid_argument] when [dirty] names a label that is not a
    block of [g]. *)
val analyze_incr :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  prev:saved ->
  dirty:Label.t list ->
  (analysis * saved * int) option

(** Decision of [analyze] as a transformation spec: temporaries named
    and insertions ordered by rank ([ranked]), so they name the same
    expressions as after a from-scratch solve of [g]. *)
val spec : Lcm_cfg.Cfg.t -> analysis -> Transform.spec

(** [transform g] = apply the decision to (a copy of) [g]. *)
val transform :
  ?simplify:bool ->
  Lcm_cfg.Cfg.t ->
  Lcm_cfg.Cfg.t * Transform.report

(** [analyze] + [apply] under the unified pass API; the context's arena
    backs the analysis, the report carries the spec and iteration
    counts. *)
val pass : Pass.t
