(** Generic iterative bit-vector data-flow solver.

    Solves one of the four classic problem shapes (forward/backward ×
    union/intersection) for all expressions simultaneously, in the classic
    bit-vector framework: every block's transfer is [out = GEN ∪ (in ∩
    KEEP)], given as two rows of data per block rather than as a function.
    State lives in flat arrays indexed by label (labels are dense ints below
    [Cfg.label_bound]), and one word-loop kernel visits a block — meet,
    transfer and change test in a single pass over the row's words.  The
    solver iterates with a worklist: blocks are seeded once in reverse
    postorder (forward) or postorder (backward), and afterwards only the
    direction-appropriate neighbors of a block whose transfer output
    changed are re-visited.  The property tests check it bit-identical
    against a reference round-robin sweep (the paper's cost model). *)

(** Human-readable name of the iteration engine (recorded in benchmark
    output). *)
val default_engine_name : string

type direction =
  | Forward
  | Backward

type confluence =
  | Union  (** "may" problems; interior initialized to all-zeros *)
  | Inter  (** "must" problems; interior initialized to all-ones *)

type spec = {
  nbits : int;
  direction : direction;
  confluence : confluence;
  boundary : Lcm_support.Bitvec.t;
      (** the entry block's in-value (forward) or the exit block's out-value
          (backward) *)
  gen : Lcm_support.Bitvec.t array;
      (** GEN rows indexed by label: block [l]'s transfer is
          [out = gen.(l) ∪ (in ∩ keep.(l))], where [in] is the meet-side
          value (block entry forward, block exit backward) and [out] the
          other side.  Every block of the graph needs an [nbits]-bit row;
          other slots are never read. *)
  keep : Lcm_support.Bitvec.t array;
      (** KEEP rows, the complement of the classic KILL set, indexed like
          [gen].  Rows are read, never written, and must stay unchanged
          while a solve runs. *)
}

type result = {
  block_in : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** value at block entry (meet result for forward problems) *)
  block_out : Lcm_cfg.Label.t -> Lcm_support.Bitvec.t;
      (** value at block exit (meet result for backward problems) *)
  sweeps : int;
      (** the maximum number of times any single block was visited — the
          iteration depth, the worklist analogue of a round-robin sweep
          count *)
  visits : int;  (** total transfer-function applications *)
}

(** Returned vectors are owned by the result; callers must not mutate them.
    Raises [Invalid_argument] when a block of the graph lacks an [nbits]-bit GEN
    or KEEP row.

    When [scratch] is given, every piece of solver state — the per-block
    meet/flow vectors (including those reachable through the result), the
    slot arrays, and the worklist machinery — is checked out of that arena
    instead of heap-allocated; the result is then only valid until the
    arena's next [reset].  Without it the behavior (and allocation) is
    unchanged. *)
val run : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result

(** A fixpoint captured for later incremental restart: heap copies of every
    block's meet/flow vectors plus the shape facts ([nbits], direction,
    label bound, per-label reachability) needed to decide whether a later
    [resolve] against a patched graph is admissible.  Unlike a {!result}
    obtained under [?scratch], a [saved] never aliases arena storage, so it
    may be retained across requests. *)
type saved

(** [run_saved g spec] is [run g spec] that additionally
    captures the fixpoint for incremental restart. *)
val run_saved :
  ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result * saved

(** [resolve g spec ~prev ~dirty] re-solves [spec] on the patched graph
    [g], reusing the fixpoint [prev] saved before the patch: the affected
    region — the closure of [dirty] (plus any block added or whose
    reachability changed since the save) under flow dependents — is reset
    and re-iterated with the dense worklist seeded by it, while every other
    block keeps its saved value.  [dirty] must contain every block whose
    transfer function or meet inputs the patch changed (for a terminator
    edit: the block itself plus its old and new successors).

    Returns the result, a fresh [saved] for the next restart, and the
    region size in blocks ([visits] counts only region visits).  The result
    is bit-identical to a from-scratch [run g spec] — the property tests
    and the serving [delta] op's validate mode both assert this.  Returns
    [None] when [prev] is not admissible for [spec] ([nbits] or direction
    mismatch — e.g. the patch changed the candidate expression pool), in
    which case the caller should fall back to a full solve. *)
val resolve :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  spec ->
  prev:saved ->
  dirty:Lcm_cfg.Label.t list ->
  (result * saved * int) option
