module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Rowtab = Lcm_support.Rowtab
module Scratch = Lcm_support.Pool.Scratch
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label

(* Row [i] of a table: its page and its offset there, located without a
   call (see {!Lcm_support.Rowtab.t}). *)
let[@inline] rpage (t : Rowtab.t) i = t.Rowtab.spine.(i lsr t.Rowtab.shift)
let[@inline] roff (t : Rowtab.t) i = (i land ((1 lsl t.Rowtab.shift) - 1)) * t.Rowtab.nw

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
  gen : Rowtab.t;
  keep : Rowtab.t;
}

type result = {
  block_in : Label.t -> Bitvec.t;
  block_out : Label.t -> Bitvec.t;
  flow : Rowtab.t;
  meet_into : int array -> Label.t -> unit;
  sweeps : int;
  visits : int;
  changed : Label.t array;
}

(* The state of one solve, from scratch or restarted: [flow] holds each
   block's value after the transfer (exit for forward, entry for
   backward), indexed by label like the spec's GEN/KEEP rows.  The meet
   side is not stored: it is the meet of the neighbors' flow rows, which
   the visit computes and a reader recomputes ({!meet_into}).  [boundary]
   and [start] are the boundary's and the start value's words, [acc] and
   [out] the visit's word buffers for the meet and the transfer. *)
type state = {
  adj : Cfg.adjacency;
  boundary_label : Label.t;
  boundary : int array;
  start : int array;
  flow : Rowtab.t;
  gen : Rowtab.t;
  keep : Rowtab.t;
  union : bool;
  forward : bool;
  (* meet inputs of a block (preds forward, succs backward) *)
  meet_neighbors : Label.t array array;
  (* blocks whose meet reads our flow (succs forward, preds backward) *)
  dependents : Label.t array array;
  nwords : int;
  acc : int array;
  out : int array;
}

(* The visit kernel reads rows with unchecked word accesses, so the tables
   it reads are checked once per solve: [nbits]-bit rows, one for every
   label of the graph. *)
let check_table what rows nbits bound =
  if rows.Rowtab.nw <> Bitvec.words_for nbits || rows.Rowtab.count < bound then
    invalid_arg
      (Printf.sprintf "Solver: %s has %d rows of %d words, expected %d of %d" what (rows.Rowtab.count)
         (rows.Rowtab.nw) bound (Bitvec.words_for nbits))

let check_spec (spec : spec) bound =
  check_table "gen" spec.gen spec.nbits bound;
  check_table "keep" spec.keep spec.nbits bound;
  if Bitvec.length spec.boundary <> spec.nbits then invalid_arg "Solver: boundary width differs from nbits"

let boundary_label_of g = function
  | Forward -> Cfg.entry g
  | Backward -> Cfg.exit_label g

(* The start value of a row: ∅ for ∪, all-ones for ∩.  The result reads
   it ([meet_into]), so it comes from the result's allocator. *)
let start_row rows (spec : spec) =
  Bitvec.words
    (match spec.confluence with Union -> Arena.alloc rows spec.nbits | Inter -> Arena.alloc_full rows spec.nbits)

(* [flow] is made by the caller: a fresh table at the confluence's start
   value, or a copy-on-write one over a capture. *)
let make_state ~work g spec ~start ~flow =
  let adj = Cfg.adjacency g in
  let forward = match spec.direction with Forward -> true | Backward -> false in
  let nwords = Bitvec.words_for spec.nbits in
  {
    adj;
    boundary_label = boundary_label_of g spec.direction;
    boundary = Bitvec.words spec.boundary;
    start;
    flow;
    gen = spec.gen;
    keep = spec.keep;
    union = (match spec.confluence with Union -> true | Inter -> false);
    forward;
    meet_neighbors = (if forward then adj.Cfg.adj_pred else adj.Cfg.adj_succ);
    dependents = (if forward then adj.Cfg.adj_succ else adj.Cfg.adj_pred);
    nwords;
    acc = Arena.alloc_int work (max 1 nwords);
    out = Arena.alloc_int work (max 1 nwords);
  }

(* [out = GEN ∪ (in ∩ KEEP)], [in] the words of [src] at [so], compared
   with block l's flow row in the same pass: written over it in place in
   a fresh table, computed into [out] and stored (copy-on-write) in a
   restarted one; whether the row changed. *)
let transfer st l src so =
  let f = st.flow in
  let gp = rpage st.gen l and go = roff st.gen l in
  let kp = rpage st.keep l and ko = roff st.keep l in
  let fp = rpage f l and fo = roff f l in
  let fresh = not f.Rowtab.cow in
  let out = if fresh then fp else st.out and oo = if fresh then fo else 0 in
  let changed = ref false in
  for w = 0 to st.nwords - 1 do
    let o = Array.unsafe_get gp (go + w) lor (Array.unsafe_get src (so + w) land Array.unsafe_get kp (ko + w)) in
    if o <> Array.unsafe_get fp (fo + w) then changed := true;
    Array.unsafe_set out (oo + w) o
  done;
  !changed && (fresh || Rowtab.store f l out)

let[@inline] join union a b = if union then a lor b else a land b

(* The meet of [nbs]' rows of [flow], [k >= 2] of them, into [acc]. *)
let join_into acc nw union flow nbs k =
  let n0 = Array.unsafe_get nbs 0 and n1 = Array.unsafe_get nbs 1 in
  let p0 = rpage flow n0 and o0 = roff flow n0 and p1 = rpage flow n1 and o1 = roff flow n1 in
  for w = 0 to nw - 1 do
    Array.unsafe_set acc w (join union (Array.unsafe_get p0 (o0 + w)) (Array.unsafe_get p1 (o1 + w)))
  done;
  for i = 2 to k - 1 do
    let ni = Array.unsafe_get nbs i in
    let pi = rpage flow ni and oi = roff flow ni in
    for w = 0 to nw - 1 do
      Array.unsafe_set acc w (join union (Array.unsafe_get acc w) (Array.unsafe_get pi (oi + w)))
    done
  done

(* The visit kernel, over the rows of block l: the meet of the neighbors'
   flow rows, then the transfer into the flow row — written only when it
   changes, so a restart copies only the pages whose rows move.  The
   boundary block's meet is the boundary value, and a block without meet
   inputs (e.g. a backward block that cannot reach the exit) meets to the
   neutral element of the confluence, the start value.  Whether the flow
   row changed. *)
let visit st l =
  let nbs = Array.unsafe_get st.meet_neighbors l in
  if l = st.boundary_label then transfer st l st.boundary 0
  else
    match Array.length nbs with
    | 0 -> transfer st l st.start 0
    | 1 ->
      (* The common straight-line case: the meet is the one neighbor's
         flow row, read in place. *)
      let n0 = Array.unsafe_get nbs 0 in
      transfer st l (rpage st.flow n0) (roff st.flow n0)
    | k ->
      join_into st.acc st.nwords st.union st.flow nbs k;
      transfer st l st.acc 0

(* The meet side of block l, as a full solve leaves it, into [buf]: the
   boundary value at the boundary block, the start value at a block the
   solve never visits (unreachable) or that has no meet inputs, else the
   meet of the neighbors' flow rows. *)
let meet_of st flow adj buf l =
  let nw = st.nwords in
  let nbs = (if st.forward then adj.Cfg.adj_pred else adj.Cfg.adj_succ).(l) in
  if l = st.boundary_label then Array.blit st.boundary 0 buf 0 nw
  else if adj.Cfg.adj_rpo_pos.(l) < 0 || Array.length nbs = 0 then Array.blit st.start 0 buf 0 nw
  else if Array.length nbs = 1 then Array.blit (rpage flow nbs.(0)) (roff flow nbs.(0)) buf 0 nw
  else join_into buf nw st.union flow nbs (Array.length nbs)

(* The worklist's queue: a bitset of pending positions in the processing
   order (reverse postorder forward, postorder backward) and a cursor
   [low] — no word below it has a pending bit.  A block's position is read
   off the adjacency ([adj_rpo_pos], mirrored for postorder), so a queue
   costs its bitset only.  A pop takes the least pending position, so
   blocks are visited in exactly the order a priority queue keyed by
   position would give, without a heap; a zero word skips a word's worth
   of positions at once.  A record and top-level functions, not closures
   over refs, so a solve allocates only the record. *)
type queue = {
  order : int array;  (* the block at each position *)
  rpo_pos : int array;
  forward : bool;
  last : int;  (* the last position *)
  pending : int array;
  mutable npending : int;
  mutable low : int;
}

let make_queue ~work st =
  let adj = st.adj in
  let nreach = Array.length adj.Cfg.adj_rpo in
  {
    order = (if st.forward then adj.Cfg.adj_rpo else adj.Cfg.adj_post);
    rpo_pos = adj.Cfg.adj_rpo_pos;
    forward = st.forward;
    last = nreach - 1;
    pending = Arena.alloc_int work (max 1 (Bitvec.words_for nreach));
    npending = 0;
    low = max_int;
  }

(* Queue a reachable block; an unreachable one is never visited. *)
let push q l =
  let r = q.rpo_pos.(l) in
  if r >= 0 then begin
    let p = if q.forward then r else q.last - r in
    let wi = p / Bitvec.bits_per_word and m = 1 lsl (p mod Bitvec.bits_per_word) in
    let x = q.pending.(wi) in
    if x land m = 0 then begin
      q.pending.(wi) <- x lor m;
      q.npending <- q.npending + 1;
      if wi < q.low then q.low <- wi
    end
  end

(* The pending block of least position; the queue must be non-empty. *)
let pop q =
  while q.pending.(q.low) = 0 do
    q.low <- q.low + 1
  done;
  let x = q.pending.(q.low) in
  q.pending.(q.low) <- x land (x - 1);
  q.npending <- q.npending - 1;
  q.order.((q.low * Bitvec.bits_per_word) + Bitvec.ntz x)

(* Drain the queue: pop the pending block of least position, visit it, and
   re-push the direction-appropriate dependents of a block whose flow
   changed.  [sweeps] is the most visits of any single block — the depth
   of iteration, the analogue of the round-robin sweep count — kept as a
   running maximum. *)
let drain ~work st q =
  let visits = ref 0 and sweeps = ref 0 in
  let count = Arena.alloc_stamps work st.adj.Cfg.adj_bound in
  while q.npending > 0 do
    let l = pop q in
    incr visits;
    let c = Arena.count count l + 1 in
    Arena.set_count count l c;
    if c > !sweeps then sweeps := c;
    if visit st l then begin
      (* Explicit loop, not [Array.iter]: a closure here would be
         allocated on every changed visit of the hot fixpoint. *)
      let deps = st.dependents.(l) in
      for i = 0 to Array.length deps - 1 do
        push q deps.(i)
      done
    end
  done;
  (!sweeps, !visits)

let result g (spec : spec) st ~sweeps ~visits ~changed =
  let check what l =
    if not (l >= 0 && l < st.flow.Rowtab.count && Cfg.mem g l) then
      invalid_arg (Printf.sprintf "Solver.%s: unknown label B%d" what l)
  in
  let meet_into buf l = meet_of st st.flow st.adj buf l in
  let flow_side what l =
    check what l;
    Rowtab.to_bitvec st.flow l spec.nbits
  and meet_side what l =
    check what l;
    let v = Bitvec.create spec.nbits in
    meet_into (Bitvec.words v) l;
    v
  in
  {
    block_in = (if st.forward then meet_side "block_in" else flow_side "block_in");
    block_out = (if st.forward then flow_side "block_out" else meet_side "block_out");
    flow = st.flow;
    meet_into;
    sweeps;
    visits;
    changed;
  }

(* The solve: a fresh flow table at the start value, every reachable
   block seeded once in priority order (reverse postorder for forward
   problems, postorder for backward), then drained.  The table comes from
   [rows] ([None]: the heap), the bookkeeping from [work]. *)
let solve ~rows ~work g spec =
  let bound = Cfg.label_bound g in
  check_spec spec bound;
  let start = start_row rows spec in
  let flow = Rowtab.create rows ~nw:(Bitvec.words_for spec.nbits) ~count:bound start in
  let st = make_state ~work g spec ~start ~flow in
  let q = make_queue ~work st in
  Array.iter (push q) q.order;
  let sweeps, visits = drain ~work st q in
  (st, result g spec st ~sweeps ~visits ~changed:[||])

(* The worklist comes from [scratch], or from an arena checked out for the
   solve: it never escapes, so a caller without an arena need not hand it
   to the GC. *)
let on_work scratch g nbits f =
  match scratch with
  | Some _ -> f scratch
  | None -> Scratch.with_arena ~blocks:(Cfg.label_bound g) ~exprs:nbits (fun a -> f (Some a))

let run ?scratch g spec = on_work scratch g spec.nbits (fun work -> snd (solve ~rows:scratch ~work g spec))

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
   the start already).

   The restart runs the same kernel on a copy-on-write table over the
   captured one ({!Rowtab.cow}): it copies the spine and the pages it
   writes, and the table's change list is the rows of those pages that
   moved.  A block whose meet side changed is a dependent of one of
   those rows, a dirty block or a block whose reachability flipped; its
   meet is compared before and after. *)

type saved = {
  s_spec : spec;
  s_adj : Cfg.adjacency;
  s_flow : Rowtab.t;
}

(* The boundary may be arena storage; the capture keeps a copy. *)
let save st (spec : spec) = { s_spec = { spec with boundary = Bitvec.copy spec.boundary }; s_adj = st.adj; s_flow = st.flow }

let run_saved ?scratch g spec =
  on_work scratch g spec.nbits (fun work ->
      let st, r = solve ~rows:None ~work g spec in
      (r, save st spec))

(* Bits of [l]'s flow row that differ from the saved row — all of them
   moved to the start during the lift, and none else has moved yet. *)
let[@inline] moved_word st l w =
  let f = st.flow in
  let x = Array.unsafe_get (rpage f l) (roff f l + w) in
  if Rowtab.has_base f l then x lxor Array.unsafe_get (Rowtab.base_page f l) (roff f l + w) else lnot 0

(* Move the bits of [mask] of block [l]'s flow row to the start value;
   whether any bit moved. *)
let lift st l mask = if st.union then Rowtab.lift st.flow l mask ~up:false else Rowtab.lift st.flow l mask ~up:true

(* Propagate the lift from the blocks on [lf] through their dependents:
   dependent [d] takes the moved bits of its input that its transfer
   passes and that are not at the start at [d].  Every block touched by
   the lift, and every dependent of one (its meet input moved), is
   queued. *)
let propagate_lift st q lf =
  let union = st.union and mask = lf.Rowtab.mask and f = st.flow in
  let r = ref (Rowtab.next_lifted lf) in
  while !r >= 0 do
    let r0 = !r in
    push q r0;
    let deps = st.dependents.(r0) in
    for i = 0 to Array.length deps - 1 do
      let d = deps.(i) in
      push q d;
      let x = rpage f d and xo = roff f d in
      let gp = rpage st.gen d and go = roff st.gen d in
      let kp = rpage st.keep d and ko = roff st.keep d in
      let any = ref false in
      for w = 0 to st.nwords - 1 do
        let passes =
          if union then lnot gp.(go + w) land x.(xo + w) else kp.(ko + w) land lnot x.(xo + w)
        in
        let m = moved_word st r0 w land passes in
        mask.(w) <- m;
        if m <> 0 then any := true
      done;
      if !any && lift st d mask then Rowtab.note lf d
    done;
    r := Rowtab.next_lifted lf
  done

(* The blocks whose entry or exit row the restart changed, ascending:
   those whose flow row moved or that are new, and those whose meet side
   differs from the one the capture implies — only a dependent of a moved
   row, a dirty block or, after a shape edit, a block whose reachability
   flipped can be one. *)
let changed_blocks work st prev dirty ~same_shape =
  let adj = st.adj and flow = st.flow in
  let bound = adj.Cfg.adj_bound and old_bound = prev.s_adj.Cfg.adj_bound in
  let seen = Arena.alloc_stamps work bound and found = ref [] in
  let now = Arena.alloc_int work st.nwords and before = Arena.alloc_int work st.nwords in
  let add l =
    Arena.set seen l;
    found := l :: !found
  in
  let consider l =
    if not (Arena.is_set seen l) then begin
      Arena.set seen l;
      if l >= old_bound then found := l :: !found
      else begin
        meet_of st flow adj now l;
        meet_of st prev.s_flow prev.s_adj before l;
        if Rowtab.differs now 0 before 0 st.nwords 0 then found := l :: !found
      end
    end
  in
  for j = 0 to Rowtab.nchanged flow - 1 do
    add (Rowtab.changed flow j)
  done;
  for j = 0 to Rowtab.nchanged flow - 1 do
    Array.iter consider st.dependents.(Rowtab.changed flow j)
  done;
  List.iter consider dirty;
  if not same_shape then begin
    let old_pos = prev.s_adj.Cfg.adj_rpo_pos in
    for l = 0 to bound - 1 do
      if l >= old_bound || (old_pos.(l) < 0) <> (adj.Cfg.adj_rpo_pos.(l) < 0) then consider l
    done
  end;
  let a = Array.of_list !found in
  Array.sort compare a;
  a

(* The restart proper, its bookkeeping and worklist on [work]. *)
let restart_on ~rows work g (spec : spec) ~prev ~dirty =
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound and old_bound = prev.s_adj.Cfg.adj_bound in
  let same_shape = adj == prev.s_adj in
  List.iter
    (fun l -> if l < 0 || l >= bound then invalid_arg (Printf.sprintf "Solver.restart: dirty label B%d" l))
    dirty;
  check_spec spec bound;
  let start = start_row rows spec in
  let flow = Rowtab.cow work prev.s_flow ~count:bound start in
  let st = make_state ~work g spec ~start ~flow in
  let nw = st.nwords and union = st.union in
  let rpo_pos = adj.Cfg.adj_rpo_pos in
  let q = make_queue ~work st in
  let lf = Rowtab.lifts work bound nw in
  let mask = lf.Rowtab.mask in
  (* New blocks start from the start rows. *)
  for l = old_bound to bound - 1 do
    push q l
  done;
  let og = prev.s_spec.gen and ok = prev.s_spec.keep in
  let all = if same_shape then start else Bitvec.words (Arena.alloc_full work spec.nbits) in
  List.iter
    (fun l ->
      if l < old_bound && rpo_pos.(l) >= 0 then
        if not same_shape then begin
          Array.blit all 0 mask 0 nw;
          if lift st l mask then Rowtab.note lf l;
          push q l
        end
        else begin
          (* The bits whose transfer changed, and among them those that
             may move back to the start (∩: GEN or KEEP gained; ∪: lost). *)
          let gn = rpage spec.gen l and gno = roff spec.gen l in
          let go = rpage og l and goo = roff og l in
          let kn = rpage spec.keep l and kno = roff spec.keep l in
          let ko = rpage ok l and koo = roff ok l in
          let changed = ref false in
          for w = 0 to nw - 1 do
            let g1 = gn.(gno + w) and g0 = go.(goo + w) and k1 = kn.(kno + w) and k0 = ko.(koo + w) in
            if g1 <> g0 || k1 <> k0 then changed := true;
            mask.(w) <-
              (if union then (g0 land lnot g1) lor (k0 land lnot k1) else (g1 land lnot g0) lor (k1 land lnot k0))
          done;
          if !changed then begin
            if lift st l mask then Rowtab.note lf l;
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
           start. *)
        ignore (Rowtab.store flow l start);
        Rowtab.note lf l
      end
    done
  end;
  propagate_lift st q lf;
  let sweeps, visits = drain ~work st q in
  Rowtab.seal flow;
  let changed = changed_blocks work st prev dirty ~same_shape in
  (result g spec st ~sweeps ~visits ~changed, save st spec)

(* Bits appended to the problem within the row width start from the
   capture's rows, whose padding is clear, so the boundaries must agree
   word for word: the caller vouches that the all-zero column is the old
   system's fixpoint for each appended bit, as it is for an expression no
   block computes when every block reaches the exit. *)
let same_boundary (p : spec) (spec : spec) =
  not (Rowtab.differs (Bitvec.words p.boundary) 0 (Bitvec.words spec.boundary) 0 (Bitvec.words_for p.nbits) 0)

let restart ?scratch g spec ~prev ~dirty =
  let p = prev.s_spec in
  if
    p.nbits > spec.nbits
    || Bitvec.words_for p.nbits <> Bitvec.words_for spec.nbits
    || p.direction <> spec.direction || p.confluence <> spec.confluence
    || not (same_boundary p spec)
  then None
  else on_work scratch g spec.nbits (fun work -> Some (restart_on ~rows:scratch work g spec ~prev ~dirty))
