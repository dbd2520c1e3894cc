module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Scratch = Lcm_support.Pool.Scratch
module Trace = Lcm_obs.Trace
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Expr_pool = Lcm_ir.Expr_pool

type analysis = {
  pool : Expr_pool.t;
  local : Local.t;
  avail : Avail.t;
  antic : Antic.t;
  earliest : Label.t * Label.t -> Bitvec.t;
  later : Label.t * Label.t -> Bitvec.t;
  laterin : Label.t -> Bitvec.t;
  insert : ((Label.t * Label.t) * Bitvec.t) list;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
}

(* Position of [p] in a predecessor (or successor) row of the adjacency
   snapshot, or -1.  Rows are short (bounded by terminator arity / join
   width) and edges are unique, so a linear scan replaces what used to be a
   hashed edge table — whose per-edge [replace] at build time and [Some]
   per lookup were the last allocations of the earliestness phase. *)
let rec row_index row p i =
  if i >= Array.length row then -1
  else if Label.equal (Array.unsafe_get row i) p then i
  else row_index row p (i + 1)

let words = Bitvec.words

(* EARLIEST as one edge-major word matrix in the adjacency snapshot's CSR
   layout: row [adj_pred_off.(b) + i], at word offset [row * nw], is
   EARLIEST(p, b) for the i-th predecessor p of b.  One fused word loop per
   edge:

     EARLIEST(p,b) = ANTIN(b) ∩ ¬(AVOUT(p) ∪ (TRANSP(p) ∩ ANTOUT(p)))

   (the TRANSP ∩ ANTOUT factor is dropped when p is the entry block).  The
   LATERIN fixpoint reads the matrix by predecessor index directly; the
   public lookup API goes through {!row_index}.  One arena int-array
   checkout holds every edge's set. *)
let compute_earliest ?scratch g local avail antic =
  let adj = Cfg.adjacency g in
  let entry = Cfg.entry g in
  let nw = Bitvec.words_for (Local.nbits local) in
  let pred_off = adj.Cfg.adj_pred_off in
  let transp = Local.transp_rows local in
  let m = Arena.alloc_int scratch (max 1 (pred_off.(adj.Cfg.adj_bound) * nw)) in
  for b = 0 to adj.Cfg.adj_bound - 1 do
    let preds = adj.Cfg.adj_pred.(b) in
    if Array.length preds > 0 then begin
      let antin = words (antic.Antic.antin b) in
      for i = 0 to Array.length preds - 1 do
        let p = preds.(i) in
        let avout = words (avail.Avail.avout p) in
        let base = (pred_off.(b) + i) * nw in
        if Label.equal p entry then
          for w = 0 to nw - 1 do
            m.(base + w) <- antin.(w) land lnot avout.(w)
          done
        else begin
          let tr = words transp.(p) and antout = words (antic.Antic.antout p) in
          for w = 0 to nw - 1 do
            m.(base + w) <- antin.(w) land lnot (avout.(w) lor (tr.(w) land antout.(w)))
          done
        end
      done
    end
  done;
  m

(* Greatest fixpoint of the LATER/LATERIN system, worklist-driven in
   reverse-postorder priority: LATERIN(b) depends only on LATERIN(p) of its
   predecessors, so when a block's LATERIN shrinks only its successors need
   re-visiting.  State is one flat word matrix, LATERIN(l) at word offset
   [l * nw] (one array, not a row object per block); a visit is one word
   loop per predecessor,

     acc ∩= EARLIEST(p,b) ∪ (LATERIN(p) ∩ ¬ANTLOC(p))

   into a word accumulator, then one compare-and-store pass into
   LATERIN(b).  Returns the LATERIN table and the iteration counts
   (visits = per-block LATERIN evaluations; sweeps = maximum visits of any
   single block).  [laterin_fixpoint] fills the table [laterin] with its
   worklist on [arena]; [compute_laterin] takes the table from [scratch]
   and the worklist from [scratch] or an arena checked out for the
   fixpoint. *)
let laterin_fixpoint arena g local earliest laterin =
  let n = Local.nbits local in
  let nw = Bitvec.words_for n in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  let entry = Cfg.entry g in
  let antloc = Local.antloc_rows local in
  (* [full] is the intersection's identity, the start of every row and of
     every visit's accumulator (all-ones with the high bits of the last
     word clear); the entry's row is the empty boundary. *)
  let full = words (Arena.alloc_full arena n) in
  for l = 0 to bound - 1 do
    if not (Label.equal l entry) then Array.blit full 0 laterin (l * nw) nw
  done;
  let acc = Arena.alloc_int arena nw in
  let rpo_pos = adj.Cfg.adj_rpo_pos in
  (* FIFO worklist as an arena-backed ring buffer: [in_queue] deduplicates,
     so occupancy never exceeds [bound] and [bound + 1] cells distinguish
     full from empty.  A [Queue.t] here would allocate a cell per enqueue
     inside the hot fixpoint. *)
  let qcap = bound + 1 in
  let qbuf = Arena.alloc_int arena qcap in
  let qhead = ref 0 and qtail = ref 0 in
  let in_queue = Arena.alloc_bool arena bound in
  let enqueue b =
    if (not in_queue.(b)) && not (Label.equal b entry) then begin
      in_queue.(b) <- true;
      qbuf.(!qtail) <- b;
      qtail := (!qtail + 1) mod qcap
    end
  in
  List.iter enqueue adj.Cfg.adj_rpo;
  let visits = ref 0 in
  let visit_count = Arena.alloc_int arena bound in
  while !qhead <> !qtail do
    let b = qbuf.(!qhead) in
    qhead := (!qhead + 1) mod qcap;
    in_queue.(b) <- false;
    incr visits;
    visit_count.(b) <- visit_count.(b) + 1;
    Array.blit full 0 acc 0 nw;
    let preds = adj.Cfg.adj_pred.(b) and off = adj.Cfg.adj_pred_off.(b) in
    for i = 0 to Array.length preds - 1 do
      let p = preds.(i) in
      let lp = p * nw and al = words antloc.(p) and base = (off + i) * nw in
      for w = 0 to nw - 1 do
        acc.(w) <- acc.(w) land (earliest.(base + w) lor (laterin.(lp + w) land lnot al.(w)))
      done
    done;
    let lb = b * nw in
    let changed = ref false in
    for w = 0 to nw - 1 do
      if acc.(w) <> laterin.(lb + w) then begin
        laterin.(lb + w) <- acc.(w);
        changed := true
      end
    done;
    if !changed then begin
      let succs = adj.Cfg.adj_succ.(b) in
      for i = 0 to Array.length succs - 1 do
        let s = succs.(i) in
        if rpo_pos.(s) >= 0 then enqueue s
      done
    end
  done;
  (* Arena-backed arrays may be wider than [bound]; fold the live prefix. *)
  let sweeps = ref 0 in
  for l = 0 to bound - 1 do
    if visit_count.(l) > !sweeps then sweeps := visit_count.(l)
  done;
  (!sweeps, !visits)

let compute_laterin ?scratch g local earliest =
  let n = Local.nbits local in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  let laterin = Arena.alloc_int scratch (max 1 (bound * Bitvec.words_for n)) in
  let live = Arena.alloc_bool scratch bound in
  List.iter (fun l -> live.(l) <- true) adj.Cfg.adj_labels;
  let sweeps, visits =
    match scratch with
    | Some _ -> laterin_fixpoint scratch g local earliest laterin
    | None -> Scratch.with_arena ~blocks:bound ~exprs:n (fun a -> laterin_fixpoint (Some a) g local earliest laterin)
  in
  ((laterin, live), sweeps, visits)

(* Edge (p,b)'s word offset in the EARLIEST matrix. *)
let edge_base adj nw p b =
  let i = if b >= 0 && b < adj.Cfg.adj_bound then row_index adj.Cfg.adj_pred.(b) p 0 else -1 in
  if i >= 0 then (adj.Cfg.adj_pred_off.(b) + i) * nw
  else invalid_arg (Printf.sprintf "Lcm_edge: unknown edge B%d->B%d" p b)

let rec row_nonzero m base nw w = w < nw && (m.(base + w) <> 0 || row_nonzero m base nw (w + 1))

let earliest_sets ?scratch g local avail antic =
  let m = compute_earliest ?scratch g local avail antic in
  let n = Local.nbits local in
  let nw = Bitvec.words_for n and adj = Cfg.adjacency g in
  Cfg.fold_edges adj
    (fun p b acc ->
      let base = edge_base adj nw p b in
      if not (row_nonzero m base nw 0) then acc
      else begin
        let v = Arena.alloc scratch n in
        Array.blit m base (words v) 0 nw;
        ((p, b), v) :: acc
      end)
    []

(* INSERT(p,b) = LATER(p,b) ∩ ¬LATERIN(b)
               = (EARLIEST(p,b) ∪ (LATERIN(p) ∩ ¬ANTLOC(p))) ∩ ¬LATERIN(b),
   one word of it; [e] is the EARLIEST matrix and [base] the edge's row
   offset in it, [li] the LATERIN matrix and [lp]/[lb] the offsets of p's
   and b's rows in it. *)
let[@inline] insert_word e base li lp alp lb w =
  (e.(base + w) lor (li.(lp + w) land lnot alp.(w))) land lnot li.(lb + w)

(* Emptiness tests as top-level recursions: a closure over the rows would
   be allocated per edge. *)
let rec insert_nonzero e base li lp alp lb nw w =
  w < nw && (insert_word e base li lp alp lb w <> 0 || insert_nonzero e base li lp alp lb nw (w + 1))

(* DELETE(b) = ANTLOC(b) ∩ ¬LATERIN(b), one word of it. *)
let rec delete_nonzero alb li lb nw w =
  w < nw && (alb.(w) land lnot li.(lb + w) <> 0 || delete_nonzero alb li lb nw (w + 1))

(* The up-safety (forward, AVAIL) and down-safety (backward, ANTIC)
   systems of the cascade; both read only the block-local predicates. *)
let solve_safety_systems ?scratch g local =
  ( Trace.span "lcm.up_safety" (fun () -> Avail.compute ?scratch g local),
    Trace.span "lcm.down_safety" (fun () -> Antic.compute ?scratch g local) )

(* Span names follow the paper's cascade: down-safety (ANTIC), earliestness,
   delay (LATERIN), latestness — the four phases a trace of one LCM solve
   must show (the up-safety AVAIL system rides along as "lcm.up_safety",
   the copy analysis that follows as "lcm.copy"). *)
let finish ?scratch g pool local avail antic =
  let n = Local.nbits local in
  let nw = Bitvec.words_for n in
  let earliest_m =
    Trace.span "lcm.earliest" (fun () -> compute_earliest ?scratch g local avail antic)
  in
  let adj = Cfg.adjacency g in
  let (laterin_arr, laterin_live), later_sweeps, later_visits =
    Trace.span_attrs "lcm.delay" (fun () ->
        let ((_, later_sweeps, later_visits) as r) = compute_laterin ?scratch g local earliest_m in
        ( r,
          [
            ("sweeps", string_of_int later_sweeps); ("visits", string_of_int later_visits);
          ] ))
  in
  let laterin l =
    if l >= 0 && l < adj.Cfg.adj_bound && laterin_live.(l) then Bitvec.of_words laterin_arr ~off:(l * nw) n
    else invalid_arg (Printf.sprintf "Lcm_edge.laterin: unknown label B%d" l)
  in
  let antloc = Local.antloc_rows local in
  let earliest (p, b) = Bitvec.of_words earliest_m ~off:(edge_base adj nw p b) n in
  let later (p, b) =
    let base = edge_base adj nw p b in
    let v = Arena.alloc scratch n in
    let dst = words v and lp = p * nw and alp = words antloc.(p) in
    for w = 0 to nw - 1 do
      dst.(w) <- earliest_m.(base + w) lor (laterin_arr.(lp + w) land lnot alp.(w))
    done;
    v
  in
  let entry = Cfg.entry g in
  let insert, delete =
    Trace.span "lcm.latest" (fun () ->
        (* Only non-empty sets are materialized (as arena vectors): a first
           word pass tests emptiness without storing anything. *)
        let insert =
          Cfg.fold_edges adj
            (fun p b acc ->
              let base = edge_base adj nw p b in
              let li = laterin_arr and lp = p * nw and lb = b * nw in
              let alp = words antloc.(p) in
              if not (insert_nonzero earliest_m base li lp alp lb nw 0) then acc
              else begin
                let v = Arena.alloc scratch n in
                let dst = words v in
                for w = 0 to nw - 1 do
                  dst.(w) <- insert_word earliest_m base li lp alp lb w
                done;
                ((p, b), v) :: acc
              end)
            []
        in
        let delete =
          (* DELETE is defined for b ≠ ENTRY only: the entry has no incoming
             edges, so no insertion could ever cover a deletion there (its
             LATERIN is the ∅ boundary, not a data-flow result). *)
          List.filter_map
            (fun b ->
              let alb = words antloc.(b) and lb = b * nw in
              if Label.equal b entry || not (delete_nonzero alb laterin_arr lb nw 0) then None
              else begin
                let v = Arena.alloc scratch n in
                let dst = words v in
                for w = 0 to nw - 1 do
                  dst.(w) <- alb.(w) land lnot laterin_arr.(lb + w)
                done;
                Some (b, v)
              end)
            adj.Cfg.adj_labels
        in
        (insert, delete))
  in
  let copy =
    Trace.span "lcm.copy" (fun () ->
        Copy_analysis.copies ?scratch g local ~insert_edges:insert ~deletes:delete)
  in
  {
    pool;
    local;
    avail;
    antic;
    earliest;
    later;
    laterin;
    insert;
    delete;
    copy;
    sweeps = avail.Avail.sweeps + antic.Antic.sweeps + later_sweeps;
    visits = avail.Avail.visits + antic.Antic.visits + later_visits;
  }

(* The candidate pool, built (and timed as "lcm.pool") unless the caller
   supplies one. *)
let candidate_pool g = Trace.span "lcm.pool" (fun () -> Cfg.candidate_pool g)

let analyze ?pool ?scratch g =
  let pool = match pool with Some p -> p | None -> candidate_pool g in
  let local = Trace.span "lcm.local" (fun () -> Local.compute ?scratch g pool) in
  let avail, antic = solve_safety_systems ?scratch g local in
  finish ?scratch g pool local avail antic

(* --- incremental analysis ------------------------------------------------

   A capture holds everything a delta needs to restart the cascade from
   the rows a patch changed: the candidate pool, the local predicate rows
   (with their kill masks), the AVAIL/ANTIC fixpoints and an occurrence
   index of the pool.  EARLIEST, the LATERIN delay fixpoint, latestness and
   the copies are recomputed from those rows, on the request's arena.

   A capture is admissible only while the candidate pool is unchanged — bit
   index i must mean the same expression in both solves.  The pool lists
   the graph's distinct candidates in order of first occurrence (blocks in
   label order, instructions in order), so the occurrence index decides
   equality from the dirty blocks alone: per block, its distinct pool
   indices in order of first occurrence; per expression, the key of its
   first occurrence (block, rank within the block) and the blocks that
   compute it.  After a patch only the expressions of the dirty blocks'
   old and new bodies can move; the pool is unchanged exactly when none of
   them is new or gone and the keys stay increasing in index order. *)

type occurrences = {
  blk : int array array;  (* label -> distinct pool indices, first-occurrence order *)
  key : int array;  (* index -> first occurrence, [label lsl key_shift lor rank] *)
  blocks : int array array;  (* index -> labels of the blocks computing it, ascending *)
}

let key_shift = 30

exception Pool_changed

(* Block [l]'s distinct pool indices in order of first occurrence;
   [Pool_changed] on a candidate the pool lacks.  [seen] is a stamp per
   pool index, [stamp] this scan's. *)
let block_exprs pool seen stamp g l =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | i :: rest ->
      (match Lcm_ir.Instr.candidate i with
      | None -> go acc rest
      | Some e ->
        let idx = try Expr_pool.index_exn pool e with Not_found -> raise Pool_changed in
        if seen.(idx) = stamp then go acc rest
        else begin
          seen.(idx) <- stamp;
          go (idx :: acc) rest
        end)
  in
  go [] (Cfg.instrs g l)

let rec rank arr e i = if arr.(i) = e then i else rank arr e (i + 1)

let occurrences g pool =
  let n = Expr_pool.size pool and bound = Cfg.label_bound g in
  let seen = Array.make n (-1) in
  let blk = Array.make bound [||] in
  List.iter (fun l -> blk.(l) <- block_exprs pool seen l g l) (Cfg.labels g);
  let key = Array.make n (-1) and count = Array.make n 0 in
  for l = 0 to bound - 1 do
    Array.iteri
      (fun r e ->
        if key.(e) < 0 then key.(e) <- (l lsl key_shift) lor r;
        count.(e) <- count.(e) + 1)
      blk.(l)
  done;
  let blocks = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  for l = 0 to bound - 1 do
    Array.iter
      (fun e ->
        blocks.(e).(count.(e)) <- l;
        count.(e) <- count.(e) + 1)
      blk.(l)
  done;
  { blk; key; blocks }

(* The occurrence index of the patched graph [g] when its candidate pool
   equals the capture's, decided from the bodies of the [dirty] blocks
   alone; [None] when the pool changed.  The check is exact — the pool's
   order is a function of the first-occurrence keys — so it never needs a
   full pool build. *)
let repatch_occurrences ?scratch occ pool g dirty =
  let n = Expr_pool.size pool and bound = Cfg.label_bound g in
  let old_bound = Array.length occ.blk in
  List.iter
    (fun l ->
      if l < 0 || l >= bound || not (Cfg.mem g l) then
        invalid_arg (Printf.sprintf "Lcm_edge.analyze_incr: dirty label B%d is not a block" l))
    dirty;
  let decide work =
    let is_dirty = Arena.alloc_bool work bound in
    List.iter (fun l -> is_dirty.(l) <- true) dirty;
    let seen = Arena.alloc_int work n in
    Array.fill seen 0 n (-1);
    let fresh = List.map (fun l -> (l, block_exprs pool seen l g l)) (List.sort_uniq compare dirty) in
    (* The expressions that can move: those of the dirty blocks' old and
       new bodies.  [seen] now marks them with [bound]. *)
    let affected = ref [] in
    let note e =
      if seen.(e) <> bound then begin
        seen.(e) <- bound;
        affected := e :: !affected
      end
    in
    List.iter
      (fun (l, arr) ->
        if l < old_bound then Array.iter note occ.blk.(l);
        Array.iter note arr)
      fresh;
    let key = Array.copy occ.key in
    List.iter
      (fun e ->
        let old_first =
          let bs = occ.blocks.(e) in
          let rec first i =
            if i >= Array.length bs then max_int else if is_dirty.(bs.(i)) then first (i + 1) else bs.(i)
          in
          let b = first 0 in
          if b = max_int then max_int else (b lsl key_shift) lor rank occ.blk.(b) e 0
        in
        let new_first =
          match List.find_opt (fun (_, arr) -> Array.mem e arr) fresh with
          | Some (l, arr) -> (l lsl key_shift) lor rank arr e 0
          | None -> max_int
        in
        let k = min old_first new_first in
        if k = max_int then raise Pool_changed;
        key.(e) <- k)
      !affected;
    for e = 1 to n - 1 do
      if key.(e) <= key.(e - 1) then raise Pool_changed
    done;
    (* Copy-on-write: new tables, fresh rows for what moved only. *)
    let blk = Array.init bound (fun l -> if l < old_bound then occ.blk.(l) else [||]) in
    List.iter (fun (l, arr) -> blk.(l) <- arr) fresh;
    let blocks = Array.copy occ.blocks in
    List.iter
      (fun e ->
        let kept = List.filter (fun b -> not is_dirty.(b)) (Array.to_list occ.blocks.(e)) in
        let added = List.filter_map (fun (l, arr) -> if Array.mem e arr then Some l else None) fresh in
        blocks.(e) <- Array.of_list (List.merge compare kept added))
      !affected;
    { blk; key; blocks }
  in
  match
    match scratch with
    | Some _ -> decide scratch
    | None -> Scratch.with_arena ~blocks:bound ~exprs:n (fun a -> decide (Some a))
  with
  | occ -> Some occ
  | exception Pool_changed -> None

type saved = {
  saved_pool : Expr_pool.t;
  saved_occ : occurrences;
  saved_local : Local.t;
  saved_avail : Lcm_dataflow.Solver.saved;
  saved_antic : Lcm_dataflow.Solver.saved;
}

let saved_pool s = s.saved_pool

(* The capture keeps the local rows and the safety fixpoints, so they come
   from the heap; the rest of the cascade runs on [scratch]. *)
let analyze_keep ?scratch g =
  let pool = candidate_pool g in
  let local = Trace.span "lcm.local" (fun () -> Local.compute g pool) in
  let avail, saved_avail =
    Trace.span "lcm.up_safety" (fun () -> Avail.compute_keep ?scratch g local)
  in
  let antic, saved_antic =
    Trace.span "lcm.down_safety" (fun () -> Antic.compute_keep ?scratch g local)
  in
  let saved_occ = Trace.span "lcm.occurrences" (fun () -> occurrences g pool) in
  ( finish ?scratch g pool local avail antic,
    { saved_pool = pool; saved_occ; saved_local = local; saved_avail; saved_antic } )

let analyze_incr ?scratch g ~prev ~dirty =
  let pool = prev.saved_pool in
  match Trace.span "lcm.pool" (fun () -> repatch_occurrences ?scratch prev.saved_occ pool g dirty) with
  | None -> None
  | Some saved_occ ->
    let local = Trace.span "lcm.local" (fun () -> Local.update ~prev:prev.saved_local g ~dirty) in
    (match
       Trace.span "lcm.up_safety" (fun () ->
           Avail.compute_incr ?scratch g local ~prev:prev.saved_avail ~dirty)
     with
    | None -> None
    | Some (avail, saved_avail, region_a) ->
      (match
         Trace.span "lcm.down_safety" (fun () ->
             Antic.compute_incr ?scratch g local ~prev:prev.saved_antic ~dirty)
       with
      | None -> None
      | Some (antic, saved_antic, region_b) ->
        let a = finish ?scratch g pool local avail antic in
        Some
          ( a,
            { saved_pool = pool; saved_occ; saved_local = local; saved_avail; saved_antic },
            max region_a region_b )))

let spec g a =
  {
    Transform.algorithm = "lcm-edge";
    pool = a.pool;
    temp_names = Temps.names g a.pool;
    edge_inserts = a.insert;
    entry_inserts = [];
    exit_inserts = [];
    deletes = a.delete;
    copies = a.copy;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify g (spec g a)

let pass =
  Pass.v "lcm-edge" (fun ctx g ->
      let a = analyze ?scratch:ctx.Pass.scratch g in
      let g', rep = Transform.apply g (spec g a) in
      (g', Pass.report ~sweeps:a.sweeps ~visits:a.visits ~spec:rep.Transform.spec ()))
