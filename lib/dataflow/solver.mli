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
    arena's next [reset].  Without it the result's state comes from the
    heap and the worklist from an arena checked out for the solve
    ({!Lcm_support.Pool.Scratch.with_arena}). *)
val run : ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result

(** A fixpoint captured for later incremental restart: the solve's
    meet/flow row tables (heap rows, never arena storage, so a [saved] may
    be retained across requests), the spec's GEN/KEEP row tables and the
    adjacency snapshot it was solved on.  The capture shares those tables
    instead of copying them: the caller must not mutate them, or the GEN/KEEP
    rows, afterwards, and a restart hands in new tables for the patched
    graph.  Nothing in a [saved] is ever written after it is built. *)
type saved

(** [run_saved g spec] is [run g spec] that additionally captures the
    fixpoint for {!restart}.  The row tables come from the heap even when
    [scratch] is given ([scratch] backs the worklist only). *)
val run_saved :
  ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result * saved

(** [restart g spec ~prev ~dirty] re-solves [spec] on the patched graph
    [g] from the fixpoint [prev] saved before the patch, doing work only
    for the bits and blocks the patch changed.  [spec.gen]/[spec.keep] are
    the patched graph's tables, [dirty] every block whose GEN/KEEP rows or
    meet inputs the patch changed ({!Lcm_cfg.Patch.apply}'s seed: for a
    terminator edit the block plus its old and new successors).

    Each bit is an independent system, so a body edit diffs the dirty
    blocks' new GEN/KEEP rows against the saved ones; bits that can move
    back toward the iteration's start (for ∩: GEN or KEEP gained) are
    lifted to it, and the lift propagates only through blocks whose value
    is not at the start for that bit and whose transfer passes it.  The
    worklist kernel then runs seeded with the lifted blocks, their
    dependents and the changed blocks.  A shape edit (the adjacency
    snapshot differs from the saved one) lifts every bit of the dirty
    blocks, resets blocks that became unreachable and seeds blocks that
    became reachable or are new.

    Returns the result — bit-identical to a from-scratch [run g spec]; the
    property tests and the serving [delta] op's validate mode assert this —
    a capture for the next restart, and the blocks whose rows changed
    (each once, in no particular order).  [visits] counts only the restart's visits.  The result and
    the capture share every unchanged row with [prev]; changed rows are
    fresh heap copies, and [prev] is left as it was.  [scratch] backs only
    the worklist and bookkeeping.  Returns [None] when [prev] is not
    admissible for [spec] ([nbits], direction, confluence or boundary
    differ — e.g. the patch changed the candidate expression pool), in
    which case the caller should fall back to a full solve. *)
val restart :
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  spec ->
  prev:saved ->
  dirty:Lcm_cfg.Label.t list ->
  (result * saved * Lcm_cfg.Label.t array) option
