(** Generic iterative bit-vector data-flow solver.

    Solves one of the four classic problem shapes (forward/backward ×
    union/intersection) for all expressions simultaneously, in the classic
    bit-vector framework: every block's transfer is [out = GEN ∪ (in ∩
    KEEP)], given as two rows of data per block rather than as a function.
    State lives in flat arrays indexed by label (labels are dense ints below
    [Cfg.label_bound]), and one word-loop kernel visits a block — meet,
    transfer and change test in a single pass over the row's words.  The
    default engine iterates with a worklist: blocks are seeded once in
    reverse postorder (forward) or postorder (backward), and afterwards only
    the direction-appropriate neighbors of a block whose transfer output
    changed are re-visited.  The round-robin sweep of the paper's cost model
    remains available as a reference engine ({!Sweep}) and is checked
    bit-identical against the worklist by the property tests. *)

(** Human-readable name of the default iteration engine (recorded in
    benchmark output). *)
val default_engine_name : string

(** Name of the domain-parallel engine ({!run_par}), for benchmark
    output. *)
val par_engine_name : string

type direction =
  | Forward
  | Backward

type confluence =
  | Union  (** "may" problems; interior initialized to all-zeros *)
  | Inter  (** "must" problems; interior initialized to all-ones *)

type engine =
  | Worklist  (** default: dedup priority queue in RPO/postorder priority *)
  | Sweep  (** reference: round-robin sweeps to a fixed point *)

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
      (** {!Sweep}: full passes over the block order, including the last,
          unchanged one.  {!Worklist}: the maximum number of times any
          single block was visited — the iteration depth, the worklist
          analogue of the sweep count. *)
  visits : int;  (** total transfer-function applications (both engines) *)
}

(** Returned vectors are owned by the result; callers must not mutate them.
    Both engines compute the same fixpoint (bit-identical: every GEN/KEEP
    transfer is monotone); [engine] defaults to {!Worklist}.  Raises
    [Invalid_argument] when a block of the graph lacks an [nbits]-bit GEN
    or KEEP row.

    When [scratch] is given, every piece of solver state — the per-block
    meet/flow vectors (including those reachable through the result), the
    slot arrays, and the worklist machinery — is checked out of that arena
    instead of heap-allocated; the result is then only valid until the
    arena's next [reset].  Without it the behavior (and allocation) is
    unchanged. *)
val run : ?engine:engine -> ?scratch:Lcm_support.Arena.t -> Lcm_cfg.Cfg.t -> spec -> result

(** A fixpoint captured for later incremental restart: heap copies of every
    block's meet/flow vectors plus the shape facts ([nbits], direction,
    label bound, per-label reachability) needed to decide whether a later
    [resolve] against a patched graph is admissible.  Unlike a {!result}
    obtained under [?scratch], a [saved] never aliases arena storage, so it
    may be retained across requests. *)
type saved

(** [run_saved g spec] is [run g spec] (worklist engine) that additionally
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

(** Default [threshold] of {!run_par}, in bits per domain. *)
val default_par_threshold : int

(** [run_par ?pool ?threshold g spec] solves the same problem as
    [run g spec] by partitioning the [nbits] expression axis into
    word-aligned slices ({!Lcm_support.Bitvec.slice_bounds}) and running
    the worklist over each slice's words on its own domain of [pool]
    (default: {!Lcm_support.Pool.default}).  Bit [i]'s fixpoint never
    depends on bit [j <> i], so the result is bit-identical to the
    sequential engines — slices are unique fixpoints of monotone systems,
    independent of pool scheduling.  The slices share one full-width
    state, each writing only its own words, so nothing is reassembled.

    Falls back to [run g spec] when the problem is narrower than
    [threshold] (default {!default_par_threshold}) bits per available
    domain, or when the pool has a single domain.

    Counter semantics: [visits] is summed across slices (total transfer
    applications); [sweeps] is the maximum over slices (parallel iteration
    depth).

    [scratch] backs the shared state, which is built before the fan-out;
    the slices' worklist machinery lives on their own domains' heaps (an
    arena is single-owner per domain). *)
val run_par :
  ?pool:Lcm_support.Pool.t ->
  ?threshold:int ->
  ?scratch:Lcm_support.Arena.t ->
  Lcm_cfg.Cfg.t ->
  spec ->
  result
