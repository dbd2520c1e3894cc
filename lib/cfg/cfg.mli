(** Control-flow graphs over MiniImp instructions.

    A graph always contains a distinguished *entry* block and a distinguished
    *exit* block.  Both are ordinary blocks (the entry may receive inserted
    instructions like any other block); the exit is the only block whose
    terminator is {!Halt}.  Keeping a real entry block with an outgoing edge
    to the first "user" block means edge-based PRE can insert on that edge
    without special cases. *)

(** Block terminators.  Branch conditions are atomic operands — lowering
    materializes compound conditions into instructions first — so branching
    never hides a PRE candidate. *)
type terminator =
  | Goto of Label.t
  | Branch of Lcm_ir.Expr.operand * Label.t * Label.t
      (** [Branch (c, if_true, if_false)]: taken edge first when [c ≠ 0]. *)
  | Halt  (** only the exit block *)

type t

(** [create ~name ()] is a graph containing a fresh entry block (terminated
    by [Goto exit]) and the exit block. *)
val create : ?name:string -> unit -> t

val name : t -> string
val entry : t -> Label.t
val exit_label : t -> Label.t

(** [add_block g ~instrs ~term] allocates a fresh block and returns its
    label. *)
val add_block : t -> instrs:Lcm_ir.Instr.t list -> term:terminator -> Label.t

(** [mem g l] holds when [l] names a live block of [g]. *)
val mem : t -> Label.t -> bool

(** Block contents.  All raise [Invalid_argument] on unknown labels. *)
val instrs : t -> Label.t -> Lcm_ir.Instr.t list

val term : t -> Label.t -> terminator
val set_instrs : t -> Label.t -> Lcm_ir.Instr.t list -> unit
val set_term : t -> Label.t -> terminator -> unit
val append_instr : t -> Label.t -> Lcm_ir.Instr.t -> unit
val prepend_instr : t -> Label.t -> Lcm_ir.Instr.t -> unit

(** {2 Memoised rewrites}

    What a code-motion rewrite of one block reads: the expressions whose
    upwards-exposed occurrence it deletes, those whose downwards-exposed
    occurrence it copies into the temporary, the pool that numbers them and
    the temporaries' names. *)
type rewrite_key = {
  rw_deletes : Lcm_support.Bitvec.t;
  rw_copies : Lcm_support.Bitvec.t;
  rw_pool : Lcm_ir.Expr_pool.t;
  rw_temps : string array;
}

(** [rewrite g l key f] replaces block [l] by one whose instructions are
    [f]'s (given [l]'s) and returns [f]'s two counts.  [f] must be a pure
    function of the instructions and [key].  The result is memoised on the
    replaced block's record, which copies share: a later [rewrite] of that
    record under an equal key (equal rows as sets of bits, and at each of
    their bits the same expression in both pools and the same temporary
    name — one pool may extend the other) reuses the block it made, with its memoised text,
    without calling [f].  The key's rows are copied, so they may come from
    an arena. *)
val rewrite :
  t -> Label.t -> rewrite_key -> (Lcm_ir.Instr.t list -> Lcm_ir.Instr.t list * int * int) -> int * int

(** [prune_memos g ~rewritten ~split] drops the rewrite memos of [g]'s
    blocks whose labels [rewritten] does not list, and the split memos
    (also those on a block's memoised rewrite) of the blocks [split] does
    not list; both lists ascending.  A transform calls it on its input with
    the blocks it rewrote and split, so a block that stops being rewritten
    does not keep its last result alive. *)
val prune_memos : t -> rewritten:Label.t list -> split:Label.t list -> unit

(** Labels in allocation order; the entry block is always first (a
    fresh list per call). *)
val labels : t -> Label.t list

(** [iter_labels g f] applies [f] to every label in allocation order,
    allocating nothing. *)
val iter_labels : t -> (Label.t -> unit) -> unit

(** Number of live blocks. *)
val num_blocks : t -> int

(** One more than the largest allocated label; labels are dense in
    [\[0, label_bound)] unless blocks have been removed. *)
val label_bound : t -> int

(** Successor labels in terminator order, duplicates removed. *)
val successors : t -> Label.t -> Label.t list

(** Predecessor labels (from the adjacency snapshot below; a fresh list
    per call). *)
val predecessors : t -> Label.t -> Label.t list

(** All edges [(src, dst)], grouped by source in label order (a fresh
    list per call, from the adjacency snapshot). *)
val edges : t -> (Label.t * Label.t) list

(** [is_critical_edge g (src, dst)] holds when [src] has several successors
    and [dst] several predecessors.  O(1) on the cached adjacency arrays. *)
val is_critical_edge : t -> Label.t * Label.t -> bool

(** Shape version of the graph.  Bumped by every mutation that can change
    the block set or edge set ([add_block], [set_term], [split_edge],
    [remove_unreachable], [merge_straight_pairs]); instruction-only edits
    ([set_instrs], [append_instr], …) do not bump it. *)
val version : t -> int

(** Cached adjacency/order snapshot of one shape version.

    All arrays are indexed by label in [\[0, adj_bound)]; entries of dead
    labels are empty.  The snapshot is immutable: callers must not mutate
    the arrays.  It is rebuilt lazily whenever {!version} outruns
    [adj_version], so holding on to a snapshot across graph mutation yields
    a consistent (if stale) view — re-call {!adjacency} to refresh. *)
type adjacency = private {
  adj_version : int;  (** {!version} at build time *)
  adj_bound : int;  (** {!label_bound} at build time *)
  adj_labels : Label.t array;  (** {!labels} at build time (allocation order) *)
  adj_succ : Label.t array array;  (** successors, terminator order *)
  adj_pred : Label.t array array;  (** predecessors, source-allocation order *)
  adj_succ_off : int array;  (** CSR prefix sums of [adj_succ] row lengths, [adj_bound + 1] entries *)
  adj_pred_off : int array;  (** CSR prefix sums of [adj_pred] row lengths *)
  adj_rpo : Label.t array;  (** reachable blocks, reverse postorder *)
  adj_post : Label.t array;  (** reachable blocks, postorder *)
  adj_rpo_pos : int array;  (** position in [adj_rpo]; -1 when unreachable *)
  adj_disc : int array;  (** DFS discovery time; 0 when unreachable *)
  adj_fin : int array;  (** DFS finish time; 0 when unreachable *)
}

val adjacency : t -> adjacency

(** [fold_edges adj f acc] folds [f src dst] over the snapshot's edges
    from the last to the first, so a fold that conses builds a list in
    {!edges} order; nothing is allocated per edge. *)
val fold_edges : adjacency -> (Label.t -> Label.t -> 'a -> 'a) -> 'a -> 'a

(** [split_edge g src dst] inserts a fresh block holding [instrs]
    (default none) on the edge [(src, dst)] and returns its label.  When
    the terminator of [src] mentions [dst] several times (both branch
    targets), only a single split block is created and both mentions are
    redirected.  The redirected [src] and the fresh block are memoised on
    [src]'s record, which copies share: splitting that record again on the
    same edge, to the same fresh label with an equal body, reuses them. *)
val split_edge : ?instrs:Lcm_ir.Instr.t list -> t -> Label.t -> Label.t -> Label.t

(** Remove blocks unreachable from the entry. *)
val remove_unreachable : t -> unit

(** [merge_straight_pairs g] collapses [Goto] chains: a block whose only
    successor has exactly one predecessor (and is not entry/exit) absorbs
    it.  Used to clean up after edge-split insertions. *)
val merge_straight_pairs : t -> unit

(** Copy-on-write copy, O(number of labels): the copy gets its own
    label-indexed slot array and shares every block with the source.
    Blocks are immutable — an edit of either graph replaces the block in
    that graph's slot — so mutating one never changes the other's
    instructions, text or summaries, and an untouched block keeps its
    memoised text and counts in both.  The copy starts at the source's
    {!version}, shares its adjacency snapshot (if one is built) until the
    copy's first shape edit, and carries its validation mark
    ({!validated}). *)
val copy : t -> t

(** All distinct candidate expressions of the graph, as a pool, numbered
    in label order of first occurrence: [(numbering g)]'s pool.  Memoized:
    unchanged graphs return the same pool instance (indices are stable);
    any mutation — shape or instruction content — invalidates the memo.
    Callers must treat the result as read-only. *)
val candidate_pool : t -> Lcm_ir.Expr_pool.t

(** {2 Numbering}

    The variables and candidate expressions of a graph as dense ints: a
    {!Vars} table numbering every variable, and the candidate pool, whose
    expressions are keyed by operator and operand codes as they are
    numbered.  A graph from the builder ({!Build}) is born with its
    numbering; any other graph numbers itself on first use, in the same
    label order, so both give the same pool.  Memoized like the pool;
    immutable once built. *)

type numbering

(** The graph's numbering (memoized per shape and instruction version). *)
val numbering : t -> numbering

(** [numbering_for g pool] is [numbering g] when its pool is [pool], else
    a numbering of [pool] alone (its variable table holds the variables
    [pool]'s expressions read).  Never builds [g]'s own numbering. *)
val numbering_for : t -> Lcm_ir.Expr_pool.t -> numbering

(** [extend_numbering nb es] is [nb] with the candidates [es] (which its
    pool lacks) appended to a copy of its pool ({!Lcm_ir.Expr_pool.extend}),
    keeping [nb]'s identity and variable table: a block's events numbered
    against [nb] stay valid against the extension as long as the block
    computes none of [es], which the caller must check.  Raises
    [Invalid_argument] when an expression of [es] reads a variable the
    table lacks.  [nb] is not changed. *)
val extend_numbering : numbering -> Lcm_ir.Expr.t list -> numbering

val numbering_pool : numbering -> Lcm_ir.Expr_pool.t

(** Number of variables in the numbering's table. *)
val numbering_vars : numbering -> int

(** The number of a variable in the numbering's table; [-1] when absent. *)
val numbering_var : numbering -> string -> int

(** For each expression [i] of the pool, the variable numbers of its
    operands: [reads.(2 i)] and [reads.(2 i + 1)], [-1] for a constant or
    a missing operand.  Read-only. *)
val numbering_reads : numbering -> int array

(** [events g nb l] is block [l]'s instructions as the local predicates
    see them, relative to [nb]: after a stamp of [nb] at index 0, in
    instruction order, [e >= 0] computes candidate [e], [e < 0] writes
    variable [-1 - e].  An assignment of a
    candidate lists its computation before its write; an opaque effect
    writes its destination, then each variable operand; a print lists
    nothing.  Writes of variables [nb]'s table lacks are left out (no
    candidate of [nb] reads them).  Memoized on the block record (shared
    by copies) and filled on first use; idempotent, so racing domains need
    no lock.  Raises [Not_found] when the block computes a candidate
    missing from [nb]'s pool, [Invalid_argument] on an unknown label.
    Read-only. *)
val events : t -> numbering -> Label.t -> int array

(** {2 Assembly}

    The builder's interface ({!Build}): candidate keys and whole-graph
    assembly.  Not for other callers. *)

(** [unary_key op a] and [binary_key op a b] key a candidate expression by
    its operator and operand codes ({!Vars}); a commutative operator's
    operands are keyed in ascending code order.  Codes must be below
    [2^29]. *)
val unary_key : Lcm_ir.Expr.unop -> int -> int

val binary_key : Lcm_ir.Expr.binop -> int -> int -> int

(** [assemble ~name ~vars ~blocks ~instrs ~terms ~events ~prune] is the
    graph of labels [0] (the entry) to [blocks - 1], [1] the exit, whose
    block [l] has [instrs.(l)] and [terms.(l)] (the arrays may be longer); [events.(l)] are its events with candidates as keys,
    names numbered in [vars] (rewritten in place into pool indices).  One
    DFS from the entry decides reachability; with [prune] the blocks it
    does not reach are dropped (the exit stays).  The graph is then
    checked for every fact {!Validate.check} tests, from the terminators
    and that DFS: [Error] lists the issues in {!Validate}'s order and
    words; [Ok g] is born validated, with its numbering memo filled,
    candidates numbered in label order. *)
val assemble :
  name:string ->
  vars:Vars.t ->
  blocks:int ->
  instrs:Lcm_ir.Instr.t list array ->
  terms:terminator array ->
  events:int array array ->
  prune:bool ->
  (t, string list) result

(** Variables assigned or read anywhere in the graph. *)
val all_vars : t -> string list

(** {2 Validation mark}

    [Validate.check] reads only the shape of a graph, so its verdict holds
    until the shape changes.  The graph records the shape {!version} at
    which a full check last passed: while the version is unchanged the
    check is O(1).  Every shape edit bumps the version and so clears the
    mark, except {!split_edge} on a marked graph, which re-marks after
    checking the split's local facts (see DESIGN.md).  Only {!Validate}
    sets the mark. *)

(** [validated g] holds when a full structural check passed at the
    current {!version}. *)
val validated : t -> bool

(** Record that a full structural check passed at the current
    {!version}. *)
val mark_validated : t -> unit

(** {2 Per-block memo}

    Each block lazily caches a summary of its immutable contents: its
    rendered text (the part of {!to_string} it contributes), its
    instruction, candidate-occurrence and copy counts, and its share of
    {!temp_prefix}.  The folds below read the summaries, so none of them
    walks the instructions of a block it has seen before, in this graph or
    in any copy sharing the block; once a graph has been folded, its
    totals are kept current across edits (and carried by {!copy}), so
    later folds are O(1).  Filling a memo is idempotent, so
    domains that race to fill one on a shared graph need no lock. *)

type counts = {
  n_instrs : int;  (** instructions *)
  n_candidates : int;  (** assignments of a candidate expression *)
  n_copies : int;  (** assignments of an atom (copies and moves) *)
}

(** Static counts summed over all blocks. *)
val counts : t -> counts

(** Total number of instructions (all blocks). *)
val num_instrs : t -> int

(** Number of candidate-expression occurrences (static computation count). *)
val num_candidate_occurrences : t -> int

(** The seed PRE temporaries are named from: ["_h"]. *)
val temp_seed : string

(** The shortest extension of {!temp_seed} by underscores that no variable
    of the graph (assigned or read, branch conditions included) starts
    with: [Fresh.prefix ~existing:(all_vars g) temp_seed]. *)
val temp_prefix : t -> string

val pp_terminator : Format.formatter -> terminator -> unit

(** The canonical text of the graph: a [cfg NAME (entry B0, exit B1)]
    header, then every block in allocation order as a [Bn:] line followed
    by its instructions and its terminator, each indented two spaces;
    lines are separated by ['\n'] with no trailing newline.  The
    concatenation of the blocks' memoised texts: only blocks never printed
    before are rendered.  {!pp} prints the same string. *)
val to_string : t -> string

(** {!to_string} as a JSON string literal, quotes included — equal to
    escaping {!to_string} with {!Lcm_obs.Json.escape_into} — without
    building it: its length, and a function that writes it into a buffer
    at an offset, until the graph is next edited.  The literal is the
    escaped header and every block's escaped text, memoised on the block
    like its text, so an unchanged block is escaped once for every graph
    that shares it. *)
val json : t -> int * (Bytes.t -> int -> unit)

(** {!json}, written into a string of its own. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit

(** Hex MD5 of {!to_string} — the canonical content address of the graph.
    Structurally identical graphs (same blocks in allocation order, same
    instructions and edges) digest identically regardless of how they were
    built; the result cache and the shard router key on this. *)
val digest : t -> string
