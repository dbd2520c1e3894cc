module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Scratch = Lcm_support.Pool.Scratch
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
   rows, which the visit kernel reads word by word.  [cow] is set only by a
   restart, whose tables start out sharing the saved fixpoint's rows. *)
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
  process_order : Label.t array;
  nwords : int;
  cow : cow option;
}

(* Copy-on-write bookkeeping of a restart: [owned.(l)] once block l's rows
   are private copies (the shared ones belong to the saved fixpoint), and
   the first [ntouched] cells of [touched] list those blocks. *)
and cow = {
  owned : bool array;
  touched : int array;
  mutable ntouched : int;
}

(* The visit kernel reads rows with unchecked word accesses, so every row it
   can touch is checked once per solve: a GEN and a KEEP row of exactly
   [nbits] bits for every block of the graph.  A top-level recursion, as
   the solve itself allocates no closure. *)
let check_row what rows nbits l =
  if Bitvec.length rows.(l) <> nbits then
    invalid_arg
      (Printf.sprintf "Solver: %s row of B%d has %d bits, expected %d" what l (Bitvec.length rows.(l)) nbits)

let check_table what rows (spec : spec) bound labels =
  if Array.length rows < bound then
    invalid_arg (Printf.sprintf "Solver: %s has %d rows for label bound %d" what (Array.length rows) bound);
  for i = 0 to Array.length labels - 1 do
    check_row what rows spec.nbits labels.(i)
  done

let check_spec (spec : spec) bound labels =
  check_table "gen" spec.gen spec bound labels;
  check_table "keep" spec.keep spec bound labels;
  if Bitvec.length spec.boundary <> spec.nbits then
    invalid_arg "Solver: boundary width differs from nbits"

let labels_live arena bound labels =
  let live = Arena.alloc_bool arena bound in
  Array.iter (fun l -> live.(l) <- true) labels;
  live

let neighbors_of adj = function
  | Forward -> (adj.Cfg.adj_pred, adj.Cfg.adj_succ, adj.Cfg.adj_rpo)
  | Backward -> (adj.Cfg.adj_succ, adj.Cfg.adj_pred, adj.Cfg.adj_post)

let boundary_label_of g = function
  | Forward -> Cfg.entry g
  | Backward -> Cfg.exit_label g

(* The state that outlives a solve — the meet/flow row tables and the
   [live] table its result reads — comes from [rows] ([None]: the heap).
   A solve whose fixpoint is kept for a restart takes them from the heap,
   and the capture then shares them instead of copying. *)
let make_state ~rows g spec =
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  check_spec spec bound adj.Cfg.adj_labels;
  let boundary_label = boundary_label_of g spec.direction in
  let init () =
    match spec.confluence with
    | Union -> Arena.alloc_rows rows spec.nbits bound
    | Inter -> Arena.alloc_rows_full rows spec.nbits bound
  in
  let meet = init () in
  let flow = init () in
  ignore (Bitvec.blit ~src:spec.boundary ~dst:meet.(boundary_label));
  let meet_neighbors, dependents, process_order = neighbors_of adj spec.direction in
  {
    adj;
    boundary_label;
    meet;
    flow;
    gen = spec.gen;
    keep = spec.keep;
    union = (match spec.confluence with Union -> true | Inter -> false);
    live = labels_live rows bound adj.Cfg.adj_labels;
    meet_neighbors;
    dependents;
    process_order;
    nwords = Bitvec.words_for spec.nbits;
    cow = None;
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

let fill_order q order =
  for p = 0 to Array.length order - 1 do
    let l = order.(p) in
    q.order.(p) <- l;
    q.posn.(l) <- p
  done

let push q l =
  let p = q.posn.(l) in
  let wi = p / Bitvec.bits_per_word and m = 1 lsl (p mod Bitvec.bits_per_word) in
  let x = q.pending.(wi) in
  if x land m = 0 then begin
    q.pending.(wi) <- x lor m;
    q.npending <- q.npending + 1;
    if wi < q.low then q.low <- wi
  end

let push_all q order =
  for p = 0 to Array.length order - 1 do
    push q order.(p)
  done

(* The pending block of least position; the queue must be non-empty. *)
let pop q =
  while q.pending.(q.low) = 0 do
    q.low <- q.low + 1
  done;
  let x = q.pending.(q.low) in
  q.pending.(q.low) <- x land (x - 1);
  q.npending <- q.npending - 1;
  q.order.((q.low * Bitvec.bits_per_word) + Bitvec.ntz x)

(* A restart writes a block's rows only after copying them: the shared
   ones belong to the saved fixpoint, which a failed request must find
   intact. *)
let own st c l =
  if not (Array.unsafe_get c.owned l) then begin
    c.owned.(l) <- true;
    c.touched.(c.ntouched) <- l;
    c.ntouched <- c.ntouched + 1;
    st.meet.(l) <- Bitvec.copy st.meet.(l);
    st.flow.(l) <- Bitvec.copy st.flow.(l)
  end

let make_queue ~arena st =
  let nreach = Array.length st.process_order in
  let q =
    {
      order = Arena.alloc_int arena (max 1 nreach);
      posn = Arena.alloc_int arena st.adj.Cfg.adj_bound;
      pending = Arena.alloc_int arena (max 1 (Bitvec.words_for nreach));
      npending = 0;
      low = max_int;
    }
  in
  fill_order q st.process_order;
  q

(* Drain the queue: pop the pending block of least position, visit it, and
   re-push the direction-appropriate dependents of a block whose flow
   changed.  [sweeps] is reported as the maximum number of times any single
   block was visited — the depth of iteration, the analogue of the
   round-robin sweep count.  The visit counters come from [arena] ([None]:
   the heap). *)
let drain ~arena st q =
  let bound = st.adj.Cfg.adj_bound in
  let rpo_pos = st.adj.Cfg.adj_rpo_pos in
  let visits = ref 0 in
  let visit_count = Arena.alloc_int arena bound in
  while q.npending > 0 do
    let l = pop q in
    incr visits;
    visit_count.(l) <- visit_count.(l) + 1;
    (match st.cow with Some c -> own st c l | None -> ());
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

(* The solve: seed every reachable block once in priority order (reverse
   postorder for forward problems, postorder for backward), then drain.
   On sparse graphs this drops visit counts from ~sweeps·N to the
   near-optimal count. *)
let iterate work st =
  let q = make_queue ~arena:work st in
  push_all q st.process_order;
  drain ~arena:work st q

(* The worklist comes from [scratch], or from an arena checked out for the
   solve: it never escapes, so a caller without an arena need not hand it
   to the GC. *)
let iterate_on scratch st nbits =
  match scratch with
  | Some _ -> iterate scratch st
  | None -> Scratch.with_arena ~blocks:st.adj.Cfg.adj_bound ~exprs:nbits (fun a -> iterate (Some a) st)

let run ?scratch g spec =
  let st = make_state ~rows:scratch g spec in
  let sweeps, visits = iterate_on scratch st spec.nbits in
  make_result st spec.direction ~sweeps ~visits

(* --- change-driven restart -----------------------------------------------

   The incremental tier of the serving protocol patches a retained CFG and
   re-solves from the fixpoint saved before the patch.  Every bit of a
   bit-vector problem is an independent boolean system, so a bit whose
   GEN/KEEP rows are unchanged at every block of an unchanged shape keeps
   its saved fixpoint exactly; only the bits a patch changed, at the blocks
   the change can reach, need work.

   The iteration moves every value monotonically away from its start
   (all-ones for the ∩ problems, which descend to the greatest fixpoint;
   all-zeros for ∪, which ascend to the least).  A patch can also move a
   bit of the new fixpoint *back toward* the start, past its saved value —
   a new computation makes an expression available downstream — and a
   plain restart from the saved values could never reach that.  So the
   restart first *lifts*: at each changed block it moves the bits that may
   move back to the start (for ∩: bits whose GEN or KEEP was gained), and
   propagates the lift to dependents, but only through blocks whose
   current value is not at the start for that bit and whose transfer
   passes it (∩: KEEP set; ∪: GEN clear).  A block outside that closure
   has no input that could move back, so its saved value still bounds the
   new fixpoint from the start's side.  The lifted assignment therefore
   lies between the start and the new fixpoint, and every block whose
   transfer, meet inputs or inputs' values changed is seeded; the worklist
   kernel then descends (or ascends) to exactly the fixpoint a full solve
   reaches, visiting only the lifted blocks, their dependents, and what
   actually changes.

   Shape edits, new blocks and reachability flips take every bit: a
   dirty block with changed edges is lifted in all bits, a block that
   became unreachable is reset to the start (a full solve never visits
   it), and a block that became reachable is seeded (its saved value is
   the start already). *)

type saved = {
  s_nbits : int;
  s_direction : direction;
  s_union : bool;
  s_boundary : Bitvec.t;
  s_adj : Cfg.adjacency;
  s_gen : Bitvec.t array;
  s_keep : Bitvec.t array;
  s_meet : Bitvec.t array;
  s_flow : Bitvec.t array;
  s_live : bool array;
  s_zero : Bitvec.t;
  s_full : Bitvec.t;
}

(* Equal rows of a capture share one vector: on real graphs only a
   quarter of a fixpoint's rows are distinct, so a retained handle costs
   that much less memory.  A restart shares the rows it changes with the
   capture's empty and full rows.  Shared rows are never written — a
   restart copies a row before it writes it. *)
let share_constant prev v =
  if Bitvec.is_empty v then prev.s_zero else if Bitvec.equal v prev.s_full then prev.s_full else v

let save st spec =
  let tbl = Bitvec.Interner.create 64 in
  let share_rows rows = Array.iteri (fun l v -> rows.(l) <- Bitvec.Interner.intern tbl v) rows in
  share_rows st.meet;
  share_rows st.flow;
  {
    s_nbits = spec.nbits;
    s_direction = spec.direction;
    s_union = st.union;
    s_boundary = Bitvec.copy spec.boundary;
    s_adj = st.adj;
    s_gen = st.gen;
    s_keep = st.keep;
    s_meet = st.meet;
    s_flow = st.flow;
    s_live = st.live;
    s_zero = Bitvec.Interner.intern tbl (Bitvec.create spec.nbits);
    s_full = Bitvec.Interner.intern tbl (Bitvec.create_full spec.nbits);
  }

(* Rows on the heap, so the capture shares them instead of copying. *)
let run_saved ?scratch g spec =
  let st = make_state ~rows:None g spec in
  let sweeps, visits = iterate_on scratch st spec.nbits in
  (make_result st spec.direction ~sweeps ~visits, save st spec)

(* Bits of [l]'s flow row that differ from the saved row — all of them
   moved to the start during the lift, and none else has moved yet. *)
let[@inline] moved_word st prev l w =
  let x = Array.unsafe_get (row st.flow l) w in
  if l < Array.length prev.s_flow then x lxor Array.unsafe_get (row prev.s_flow l) w
  else lnot 0

(* Move the bits of [mask] (a word array) of block [l]'s flow row to the
   start value; whether any bit moved. *)
let lift_words st c l mask =
  let union = st.union in
  let x = row st.flow l in
  let moves = ref false in
  for w = 0 to st.nwords - 1 do
    let o = Array.unsafe_get x w and m = Array.unsafe_get mask w in
    if (if union then o land m else lnot o land m) <> 0 then moves := true
  done;
  if !moves then begin
    own st c l;
    let x = row st.flow l in
    for w = 0 to st.nwords - 1 do
      let m = Array.unsafe_get mask w in
      x.(w) <- (if union then x.(w) land lnot m else x.(w) lor m)
    done
  end;
  !moves

(* Propagate the lift from the blocks on [stack] through their
   dependents: dependent [d] takes the moved bits of its input that its
   transfer passes and that are not at the start at [d].  Every reachable
   block touched by the lift, and every reachable dependent of one (its
   meet input moved), is pushed on the worklist queue. *)
let propagate_lift st c prev q stack nstack mask on_stack =
  let rpo_pos = st.adj.Cfg.adj_rpo_pos and union = st.union in
  let n = ref nstack in
  while !n > 0 do
    decr n;
    let r = stack.(!n) in
    on_stack.(r) <- false;
    if rpo_pos.(r) >= 0 then push q r;
    let deps = st.dependents.(r) in
    for i = 0 to Array.length deps - 1 do
      let d = deps.(i) in
      if rpo_pos.(d) >= 0 then push q d;
      let x = row st.flow d and gen = row st.gen d and keep = row st.keep d in
      let any = ref false in
      for w = 0 to st.nwords - 1 do
        let passes =
          if union then lnot (Array.unsafe_get gen w) land Array.unsafe_get x w
          else Array.unsafe_get keep w land lnot (Array.unsafe_get x w)
        in
        let m = moved_word st prev r w land passes in
        mask.(w) <- m;
        if m <> 0 then any := true
      done;
      if !any && lift_words st c d mask && not on_stack.(d) then begin
        on_stack.(d) <- true;
        stack.(!n) <- d;
        incr n
      end
    done
  done

(* The restart proper, its bookkeeping and worklist on [work]. *)
let restart_on work g (spec : spec) ~prev ~dirty =
  let union = prev.s_union in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound and old_bound = prev.s_adj.Cfg.adj_bound in
  let same_shape = adj == prev.s_adj in
  List.iter
    (fun l -> if l < 0 || l >= bound then invalid_arg (Printf.sprintf "Solver.restart: dirty label B%d" l))
    dirty;
  (* Other rows are the saved ones, checked when they were solved. *)
  let fresh_labels = Array.init (bound - old_bound) (fun i -> old_bound + i) in
  List.iter
    (fun labels ->
      check_table "gen" spec.gen spec bound labels;
      check_table "keep" spec.keep spec bound labels)
    [ Array.of_list dirty; fresh_labels ];
  let fresh () = if union then Bitvec.create spec.nbits else Bitvec.create_full spec.nbits in
  let share old = Array.init bound (fun l -> if l < old_bound then old.(l) else fresh ()) in
  let meet_neighbors, dependents, process_order = neighbors_of adj spec.direction in
  let c = { owned = Arena.alloc_bool work bound; touched = Arena.alloc_int work bound; ntouched = 0 } in
  let st =
    {
      adj;
      boundary_label = boundary_label_of g spec.direction;
      meet = share prev.s_meet;
      flow = share prev.s_flow;
      gen = spec.gen;
      keep = spec.keep;
      union;
      live = (if same_shape then prev.s_live else labels_live None bound adj.Cfg.adj_labels);
      meet_neighbors;
      dependents;
      process_order;
      nwords = Bitvec.words_for spec.nbits;
      cow = Some c;
    }
  in
  let nw = st.nwords in
  let rpo_pos = adj.Cfg.adj_rpo_pos in
  let q = make_queue ~arena:work st in
  let stack = Arena.alloc_int work bound and nstack = ref 0 in
  let on_stack = Arena.alloc_bool work bound in
  let mask = Arena.alloc_int work nw in
  let lifted l =
    if not on_stack.(l) then begin
      on_stack.(l) <- true;
      stack.(!nstack) <- l;
      incr nstack
    end
  in
  let all = Bitvec.words (Arena.alloc_full work spec.nbits) in
  let all_bits () = Array.blit all 0 mask 0 nw in
  (* New blocks start from fresh start rows of their own. *)
  for l = old_bound to bound - 1 do
    c.owned.(l) <- true;
    c.touched.(c.ntouched) <- l;
    c.ntouched <- c.ntouched + 1;
    if rpo_pos.(l) >= 0 then push q l
  done;
  List.iter
    (fun l ->
      if l < old_bound && rpo_pos.(l) >= 0 then
        if not same_shape then begin
          all_bits ();
          if lift_words st c l mask then lifted l;
          push q l
        end
        else begin
          (* The bits whose transfer changed, and among them those that
             may move back to the start (∩: GEN or KEEP gained; ∪: lost). *)
          let gn = row spec.gen l and go = row prev.s_gen l in
          let kn = row spec.keep l and ko = row prev.s_keep l in
          let changed = ref false in
          for w = 0 to nw - 1 do
            let g1 = gn.(w) and g0 = go.(w) and k1 = kn.(w) and k0 = ko.(w) in
            if g1 <> g0 || k1 <> k0 then changed := true;
            mask.(w) <-
              (if union then (g0 land lnot g1) lor (k0 land lnot k1)
               else (g1 land lnot g0) lor (k1 land lnot k0))
          done;
          if !changed then begin
            if lift_words st c l mask then lifted l;
            push q l
          end
        end)
    dirty;
  if not same_shape then begin
    let old_pos = prev.s_adj.Cfg.adj_rpo_pos in
    for l = 0 to min old_bound bound - 1 do
      let now_reach = rpo_pos.(l) >= 0 in
      if now_reach && old_pos.(l) < 0 then push q l
      else if (not now_reach) && old_pos.(l) >= 0 then begin
        (* A full solve never visits an unreachable block: back to the
           start, meet side included (the boundary block keeps the
           boundary value there). *)
        own st c l;
        if Label.equal l st.boundary_label then ignore (Bitvec.blit ~src:spec.boundary ~dst:st.meet.(l))
        else Bitvec.fill st.meet.(l) (not union);
        Bitvec.fill st.flow.(l) (not union);
        lifted l
      end
    done
  end;
  propagate_lift st c prev q stack !nstack mask on_stack;
  let sweeps, visits = drain ~arena:work st q in
  (* Rows that ended where they were saved go back to sharing the saved
     row; the rest are the rows this patch changed, listed in the first
     [changed] cells of [touched]. *)
  let changed = ref 0 in
  for i = 0 to c.ntouched - 1 do
    let l = c.touched.(i) in
    if
      l < old_bound
      && Bitvec.equal st.meet.(l) prev.s_meet.(l)
      && Bitvec.equal st.flow.(l) prev.s_flow.(l)
    then begin
      st.meet.(l) <- prev.s_meet.(l);
      st.flow.(l) <- prev.s_flow.(l)
    end
    else begin
      st.meet.(l) <- share_constant prev st.meet.(l);
      st.flow.(l) <- share_constant prev st.flow.(l);
      c.touched.(!changed) <- l;
      incr changed
    end
  done;
  ( make_result st spec.direction ~sweeps ~visits,
    { prev with s_adj = adj; s_gen = st.gen; s_keep = st.keep; s_meet = st.meet; s_flow = st.flow; s_live = st.live },
    Array.sub c.touched 0 !changed )

let restart ?scratch g spec ~prev ~dirty =
  let union = match spec.confluence with Union -> true | Inter -> false in
  if
    prev.s_nbits <> spec.nbits || prev.s_direction <> spec.direction || prev.s_union <> union
    || not (Bitvec.equal prev.s_boundary spec.boundary)
  then None
  else
    match scratch with
    | Some _ -> Some (restart_on scratch g spec ~prev ~dirty)
    | None ->
      Scratch.with_arena ~blocks:(Cfg.label_bound g) ~exprs:spec.nbits (fun a ->
          Some (restart_on (Some a) g spec ~prev ~dirty))
