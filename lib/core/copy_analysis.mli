(** Deciding where original computations must seed the temporary.

    Deleting [v := e] in favour of [v := h] is only meaningful if [h] holds
    the value of [e] on every incoming path.  Paths through an *inserted*
    [h := e] are fine by construction; paths on which the deletion was
    justified by an *original* computation [x := e] need that computation to
    publish its value with a copy [h := x].

    This module finds the blocks that need such copies by solving a liveness
    problem for [h] over the decided insertions and deletions:

    {v
    LIVEIN(b)  = DELETE(b) ∪ (LIVEOUT(b) ∩ ¬COMP(b))
    LIVEOUT(b) = ⋃ over edges (b,s) not carrying an insertion of LIVEIN(s)
    COPY(b)    = COMP(b) ∩ LIVEOUT(b) ∩ ¬(DELETE(b) ∩ TRANSP(b))
    v}

    The last conjunct drops blocks whose deleted (upwards-exposed)
    occurrence is also the downwards-exposed one: the rewritten [v := h]
    leaves [h] already holding the value at the block's exit. *)

(** [copies g local ~insert_edges ~deletes] is the per-block set of
    expressions whose downwards-exposed occurrence must be followed by a
    copy into the temporary.  Only non-empty sets are listed.  [scratch]
    backs the liveness state and the returned sets. *)
val copies :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  Lcm_dataflow.Local.t ->
  insert_edges:((Lcm_cfg.Label.t * Lcm_cfg.Label.t) * Lcm_support.Bitvec.t) list ->
  deletes:(Lcm_cfg.Label.t * Lcm_support.Bitvec.t) list ->
  (Lcm_cfg.Label.t * Lcm_support.Bitvec.t) list

(** {2 The liveness kernel}

    What {!copies} runs, shared with {!Lcm_edge}'s restart of the same
    system from a capture. *)

(** The system's inputs and state: [del buf l] writes DELETE([l]) into
    [buf], [ins buf l j] the INSERT set of [l]'s [j]-th out-edge; COMP and
    TRANSP rows by label; the LIVEIN table being solved; and three word
    buffers of at least [nw] words. *)
type system = {
  adj : Lcm_cfg.Cfg.adjacency;
  nw : int;
  comp : Lcm_support.Rowtab.t;
  transp : Lcm_support.Rowtab.t;
  del : int array -> Lcm_cfg.Label.t -> unit;
  ins : int array -> Lcm_cfg.Label.t -> int -> unit;
  livein : Lcm_support.Rowtab.t;
  acc : int array;
  tmp : int array;
  tmp2 : int array;
}

(** Queue [l] when it is reachable. *)
val push_reachable : system -> Lcm_support.Rowtab.queue -> Lcm_cfg.Label.t -> unit

(** Spread a restart's lift from the blocks on the lift stack: each
    predecessor takes the cleared bits its transfer passes and that it
    still holds.  Every lifted block and every reachable predecessor of one
    is queued. *)
val propagate_lift : system -> Lcm_support.Rowtab.queue -> Lcm_support.Rowtab.lifts -> unit

(** Run the worklist to the least fixpoint; the number of visits. *)
val drain : system -> Lcm_support.Rowtab.queue -> int

(** [copy_row sys l] leaves COPY([l]) in [sys.acc] and tells whether it
    is non-empty; ∅ for an unreachable block. *)
val copy_row : system -> Lcm_cfg.Label.t -> bool
