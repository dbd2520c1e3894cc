module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label

let default_engine_name = "dense worklist (RPO-position bitset queue)"

type direction =
  | Forward
  | Backward

type confluence =
  | Union
  | Inter

type spec = {
  nbits : int;
  direction : direction;
  confluence : confluence;
  boundary : Bitvec.t;
  gen : Bitvec.t array;
  keep : Bitvec.t array;
}

type result = {
  block_in : Label.t -> Bitvec.t;
  block_out : Label.t -> Bitvec.t;
  sweeps : int;
  visits : int;
}

(* Dense solve state: [meet.(l)] is the value on the
   meet side of block l (entry for forward, exit for backward); [flow.(l)]
   the value after the transfer.  Arrays are indexed by label — labels are
   dense ints below [Cfg.label_bound] — and so are the spec's GEN/KEEP
   rows, which the visit kernel reads word by word. *)
type state = {
  adj : Cfg.adjacency;
  boundary_label : Label.t;
  meet : Bitvec.t array;
  flow : Bitvec.t array;
  gen : Bitvec.t array;
  keep : Bitvec.t array;
  union : bool;
  live : bool array;
  (* meet inputs of a block (preds forward, succs backward) *)
  meet_neighbors : Label.t array array;
  (* blocks whose meet reads our flow (succs forward, preds backward) *)
  dependents : Label.t array array;
  process_order : Label.t list;
  nwords : int;
}

(* The visit kernel reads rows with unchecked word accesses, so every row it
   can touch is checked once per solve: a GEN and a KEEP row of exactly
   [nbits] bits for every block of the graph.  A top-level recursion, as
   the solve itself allocates no closure. *)
let rec check_rows what rows nbits = function
  | [] -> ()
  | l :: rest ->
    if Bitvec.length rows.(l) <> nbits then
      invalid_arg
        (Printf.sprintf "Solver: %s row of B%d has %d bits, expected %d" what l
           (Bitvec.length rows.(l)) nbits);
    check_rows what rows nbits rest

let check_table what rows (spec : spec) bound labels =
  if Array.length rows < bound then
    invalid_arg (Printf.sprintf "Solver: %s has %d rows for label bound %d" what (Array.length rows) bound);
  check_rows what rows spec.nbits labels

let check_spec (spec : spec) bound labels =
  check_table "gen" spec.gen spec bound labels;
  check_table "keep" spec.keep spec bound labels;
  if Bitvec.length spec.boundary <> spec.nbits then
    invalid_arg "Solver: boundary width differs from nbits"

(* All of a solve's state — the meet/flow row tables and the worklist
   machinery below — comes from the request's arena when one is threaded
   through ([?scratch]); with [None] every allocation falls back to the
   heap. *)
let make_state ?scratch g spec =
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  check_spec spec bound adj.Cfg.adj_labels;
  let boundary_label =
    match spec.direction with
    | Forward -> Cfg.entry g
    | Backward -> Cfg.exit_label g
  in
  let init () =
    match spec.confluence with
    | Union -> Arena.alloc_rows scratch spec.nbits bound
    | Inter -> Arena.alloc_rows_full scratch spec.nbits bound
  in
  let meet = init () in
  let flow = init () in
  ignore (Bitvec.blit ~src:spec.boundary ~dst:meet.(boundary_label));
  let live = Arena.alloc_bool scratch bound in
  List.iter (fun l -> live.(l) <- true) adj.Cfg.adj_labels;
  let meet_neighbors, dependents, process_order =
    match spec.direction with
    | Forward -> (adj.Cfg.adj_pred, adj.Cfg.adj_succ, adj.Cfg.adj_rpo)
    | Backward -> (adj.Cfg.adj_succ, adj.Cfg.adj_pred, adj.Cfg.adj_post)
  in
  {
    adj;
    boundary_label;
    meet;
    flow;
    gen = spec.gen;
    keep = spec.keep;
    union = (match spec.confluence with Union -> true | Inter -> false);
    live;
    meet_neighbors;
    dependents;
    process_order;
    nwords = Bitvec.words_for spec.nbits;
  }

let[@inline] join union a b = if union then a lor b else a land b
let[@inline] row rows l = Bitvec.words (Array.unsafe_get rows l)

(* [out = GEN ∪ (m ∩ KEEP)] over the row's [nw] words with [m] already in
   [inw]; returns whether [out] changed. *)
let transfer_words ~gen ~keep ~inw ~out nw =
  let changed = ref false in
  for w = 0 to nw - 1 do
    let o =
      Array.unsafe_get gen w lor (Array.unsafe_get inw w land Array.unsafe_get keep w)
    in
    if o <> Array.unsafe_get out w then begin
      Array.unsafe_set out w o;
      changed := true
    end
  done;
  !changed

(* The visit kernel, over the row of block l: recompute the meet from the
   neighbors' flow rows, apply [out = GEN ∪ (in ∩ KEEP)], and report
   whether [flow.(l)] changed — one word loop, no per-operation vector
   calls and no scratch blits.  Blocks without meet inputs keep the
   neutral element of the confluence (e.g. backward blocks that cannot
   reach the exit), and the boundary block keeps the boundary value. *)
let visit st l =
  let nw = st.nwords in
  let inw = row st.meet l and out = row st.flow l in
  let gen = row st.gen l and keep = row st.keep l in
  let nbs = Array.unsafe_get st.meet_neighbors l in
  let k = if Label.equal l st.boundary_label then 0 else Array.length nbs in
  if k = 1 then begin
    (* The common straight-line case: meet = the one neighbor's flow,
       fused with the transfer into a single pass. *)
    let f0 = row st.flow (Array.unsafe_get nbs 0) in
    let changed = ref false in
    for w = 0 to nw - 1 do
      let m = Array.unsafe_get f0 w in
      Array.unsafe_set inw w m;
      let o = Array.unsafe_get gen w lor (m land Array.unsafe_get keep w) in
      if o <> Array.unsafe_get out w then begin
        Array.unsafe_set out w o;
        changed := true
      end
    done;
    !changed
  end
  else begin
    if k > 1 then begin
      let union = st.union in
      let f0 = row st.flow (Array.unsafe_get nbs 0) and f1 = row st.flow (Array.unsafe_get nbs 1) in
      for w = 0 to nw - 1 do
        Array.unsafe_set inw w (join union (Array.unsafe_get f0 w) (Array.unsafe_get f1 w))
      done;
      for i = 2 to k - 1 do
        let fi = row st.flow (Array.unsafe_get nbs i) in
        for w = 0 to nw - 1 do
          Array.unsafe_set inw w (join union (Array.unsafe_get inw w) (Array.unsafe_get fi w))
        done
      done
    end;
    transfer_words ~gen ~keep ~inw ~out nw
  end

(* The worklist's queue: a bitset of pending positions in the processing
   order (reverse postorder forward, postorder backward) and a cursor
   [low] — no word below it has a pending bit.  A pop takes the least
   pending position, so blocks are visited in exactly the order a priority
   queue keyed by position would give, without a heap; a zero word skips a
   word's worth of positions at once.  A record and top-level functions,
   not closures over refs, so a solve allocates only the record. *)
type queue = {
  order : int array;  (* the block at each position *)
  posn : int array;  (* each reachable block's position *)
  pending : int array;
  mutable npending : int;
  mutable low : int;
}

let rec fill_order q p = function
  | [] -> ()
  | l :: rest ->
    q.order.(p) <- l;
    q.posn.(l) <- p;
    fill_order q (p + 1) rest

let push q l =
  let p = q.posn.(l) in
  let wi = p / Bitvec.bits_per_word and m = 1 lsl (p mod Bitvec.bits_per_word) in
  let x = q.pending.(wi) in
  if x land m = 0 then begin
    q.pending.(wi) <- x lor m;
    q.npending <- q.npending + 1;
    if wi < q.low then q.low <- wi
  end

let rec push_all q = function
  | [] -> ()
  | l :: rest ->
    push q l;
    push_all q rest

(* The pending block of least position; the queue must be non-empty. *)
let pop q =
  while q.pending.(q.low) = 0 do
    q.low <- q.low + 1
  done;
  let x = q.pending.(q.low) in
  q.pending.(q.low) <- x land (x - 1);
  q.npending <- q.npending - 1;
  q.order.((q.low * Bitvec.bits_per_word) + Bitvec.ntz x)

(* The solve: seed every reachable block once in priority order (reverse
   postorder for forward problems, postorder for backward), then re-visit
   only the direction-appropriate dependents of blocks whose flow changed.
   On sparse graphs this drops visit counts from ~sweeps·N to the
   near-optimal count.  [sweeps] is reported as the maximum number of times
   any single block was visited — the depth of iteration, the analogue of
   the round-robin sweep count.  The worklist machinery comes from [arena]
   ([None]: the heap). *)
let run_worklist ?seeds ~arena st =
  let bound = st.adj.Cfg.adj_bound in
  let rpo_pos = st.adj.Cfg.adj_rpo_pos in
  let nreach = List.length st.process_order in
  let q =
    {
      order = Arena.alloc_int arena (max 1 nreach);
      posn = Arena.alloc_int arena bound;
      pending = Arena.alloc_int arena (max 1 (Bitvec.words_for nreach));
      npending = 0;
      low = max_int;
    }
  in
  fill_order q 0 st.process_order;
  push_all q (match seeds with Some s -> s | None -> st.process_order);
  let visits = ref 0 in
  let visit_count = Arena.alloc_int arena bound in
  while q.npending > 0 do
    let l = pop q in
    incr visits;
    visit_count.(l) <- visit_count.(l) + 1;
    if visit st l then begin
      (* Explicit loop, not [Array.iter]: a closure here would be
         allocated on every changed visit of the hot fixpoint. *)
      let deps = st.dependents.(l) in
      for i = 0 to Array.length deps - 1 do
        let d = deps.(i) in
        if rpo_pos.(d) >= 0 then push q d
      done
    end
  done;
  (* Arena-backed arrays may be wider than [bound]; fold over the live
     prefix only. *)
  let sweeps = ref 0 in
  for l = 0 to bound - 1 do
    if visit_count.(l) > !sweeps then sweeps := visit_count.(l)
  done;
  (!sweeps, !visits)

let make_result st direction ~sweeps ~visits =
  let live = st.live and meet = st.meet and flow = st.flow in
  let lookup table what l =
    if l >= 0 && l < Array.length table && live.(l) then table.(l)
    else invalid_arg (Printf.sprintf "Solver.%s: unknown label B%d" what l)
  in
  let block_in, block_out =
    match direction with
    | Forward -> (lookup meet "block_in", lookup flow "block_out")
    | Backward -> (lookup flow "block_in", lookup meet "block_out")
  in
  { block_in; block_out; sweeps; visits }

let run ?scratch g spec =
  let st = make_state ?scratch g spec in
  let sweeps, visits = run_worklist ~arena:scratch st in
  make_result st spec.direction ~sweeps ~visits

(* --- restartable entry point --------------------------------------------

   The incremental tier of the serving protocol patches a retained CFG and
   re-solves only the blocks a patch can influence.  Soundness rests on a
   property [visit] already has: a block's meet is recomputed *entirely*
   from its neighbors' flow on every visit (never updated in place), so a
   solve may start from any assignment that agrees with the unique extreme
   fixpoint outside the re-initialized region.

   The affected region is the closure of the dirty seed under [dependents]
   (successors forward, predecessors backward): exactly the blocks the
   worklist could ever re-push from a changed seed.  Blocks outside it keep
   their saved fixpoint values — which remain consistent, because any block
   whose meet inputs or transfer changed is inside the region by
   construction.  Blocks inside are reset to the from-scratch
   initialization and seeded; chaotic iteration from the extreme element
   with frozen fixpoint inputs converges to the restriction of the global
   extreme fixpoint, so the combined result is bit-identical to a full
   solve — at the cost of visiting only the region. *)

type saved = {
  s_nbits : int;
  s_direction : direction;
  s_bound : int;
  s_meet : Bitvec.t array;
  s_flow : Bitvec.t array;
  s_reach : bool array;
}

(* Heap copies: solver state may live in a request arena that is reset when
   the request finishes, but a saved fixpoint must outlive it. *)
let save st spec =
  let bound = st.adj.Cfg.adj_bound in
  {
    s_nbits = spec.nbits;
    s_direction = spec.direction;
    s_bound = bound;
    s_meet = Array.init bound (fun l -> Bitvec.copy st.meet.(l));
    s_flow = Array.init bound (fun l -> Bitvec.copy st.flow.(l));
    s_reach = Array.init bound (fun l -> st.adj.Cfg.adj_rpo_pos.(l) >= 0);
  }

let run_saved ?scratch g spec =
  let st = make_state ?scratch g spec in
  let sweeps, visits = run_worklist ~arena:scratch st in
  (make_result st spec.direction ~sweeps ~visits, save st spec)

let resolve ?scratch g spec ~prev ~dirty =
  if prev.s_nbits <> spec.nbits || prev.s_direction <> spec.direction then None
  else begin
    let st = make_state ?scratch g spec in
    let bound = st.adj.Cfg.adj_bound in
    let reach = st.adj.Cfg.adj_rpo_pos in
    let affected = Array.make bound false in
    let stack = ref [] in
    let mark l =
      if l >= 0 && l < bound && not affected.(l) then begin
        affected.(l) <- true;
        stack := l :: !stack
      end
    in
    (* Seeds: patched blocks, blocks newer than the save, and blocks whose
       reachability flipped (their saved value belongs to the old shape). *)
    List.iter mark dirty;
    for l = prev.s_bound to bound - 1 do
      mark l
    done;
    for l = 0 to min prev.s_bound bound - 1 do
      if reach.(l) >= 0 <> prev.s_reach.(l) then mark l
    done;
    let rec close () =
      match !stack with
      | [] -> ()
      | l :: rest ->
        stack := rest;
        Array.iter mark st.dependents.(l);
        close ()
    in
    close ();
    (* Outside the region: restore the saved fixpoint.  Inside: keep the
       from-scratch initialization [make_state] just wrote (including the
       boundary block's boundary value). *)
    for l = 0 to min prev.s_bound bound - 1 do
      if (not affected.(l)) && st.live.(l) then begin
        ignore (Bitvec.blit ~src:prev.s_meet.(l) ~dst:st.meet.(l));
        ignore (Bitvec.blit ~src:prev.s_flow.(l) ~dst:st.flow.(l))
      end
    done;
    let seeds = List.filter (fun l -> affected.(l)) st.process_order in
    let region = List.length seeds in
    let sweeps, visits = run_worklist ~seeds ~arena:scratch st in
    Some (make_result st spec.direction ~sweeps ~visits, save st spec, region)
  end
