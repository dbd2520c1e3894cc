module Bitvec = Lcm_support.Bitvec
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool

type terminator =
  | Goto of Label.t
  | Branch of Expr.operand * Label.t * Label.t
  | Halt

type adjacency = {
  adj_version : int;
  adj_bound : int;
  adj_labels : Label.t array;
  adj_succ : Label.t array array;
  adj_pred : Label.t array array;
  adj_succ_off : int array;
  adj_pred_off : int array;
  adj_rpo : Label.t array;
  adj_post : Label.t array;
  adj_rpo_pos : int array;
  adj_disc : int array;
  adj_fin : int array;
}

type counts = { n_instrs : int; n_candidates : int; n_copies : int }

(* A block's counts, plus its variables' share of the temp prefix
   ([Fresh.run temp_seed] maximised over the names it mentions); summed
   (and maximised) over a graph, the graph's totals.  A [temp_run] of -1
   in a graph's totals means the maximum is not known. *)
type summary = { s_instrs : int; s_candidates : int; s_copies : int; temp_run : int }

(* The variables and candidate expressions of a graph as dense ints: the
   candidate pool (expressions numbered in label order of first
   occurrence), the variable table, and for each expression the variable
   numbers of its operands ([reads.(2 i)] and [reads.(2 i + 1)], -1 for a
   constant or a missing operand).  Immutable once built. *)
type numbering = { id : int; pool : Expr_pool.t; vars : Vars.t; reads : int array }

let next_id = Atomic.make 1
let numbering_record pool vars reads = { id = Atomic.fetch_and_add next_id 1; pool; vars; reads }

(* A block's instructions as the local predicates see them, relative to
   one numbering: the numbering's [id] at index 0, then in instruction
   order, [e >= 0] computes candidate [e] and [e < 0] writes variable
   [-1 - e].  An assignment of a candidate
   lists the computation before the write, so [x := x + 1] computes
   before it kills; an opaque effect writes its destination and then
   each variable operand; a print lists nothing.  A write of a variable
   the numbering's table lacks is left out: no candidate reads it. *)
(* One block.  The contents are immutable: an edit replaces the record in
   its slot, so [copy] can share every record and a mutation of either
   graph never shows through in the other.  The mutable fields are memos
   of the contents, filled on first use:
   - [text]: the block's canonical rendering, ["\nBn:"], then ["\n  "]
     and each instruction, then ["\n  "] and the terminator ([""] until
     rendered; a rendered block is never empty).  It names the block's
     label, so a record lives in one slot only.
   - [summary]: its counts and temp-prefix run ([no_summary] until
     counted).
   - [events]: its events relative to the numbering whose [id] is at
     index 0 ([no_events] until numbered).  A record shared by graphs
     with different numberings keeps the last one asked for; a reader
     checks the id and recomputes on a mismatch, so the memo is never
     wrong, only sometimes cold.
   - [json]: the text escaped as the inside of a JSON string literal
     ([""] until escaped).  It replaces [text] when it is made, so a block
     holds one rendering of itself (see {!text_length}); [text_len] keeps
     the text's length (0 until then), so printing such a block unescapes
     it once instead of scanning it for its length first.
   - [made]: what a transform last made of this record, with the inputs
     it was made from: the block a code-motion rewrite made of it (see
     {!rewrite}), or what a split of one of its out-edges made of it and
     of the fresh block (see {!split_edge}).  A rewritten record is not
     itself split (its rewrite is), so one memo serves both.
   Filling a memo is idempotent — every domain that races to fill one
   computes the same value from the same immutable contents, and a record
   or string is published whole — so records shared between graphs, or
   read by several domains, need no lock (a printer that finds neither
   rendering renders the block again).  The rewrite and split memos are
   not idempotent (a later rewrite or split with other inputs replaces
   them), but each keeps its key and its result in one immutable cell
   published by one store, so a racing reader sees either cell whole and a
   stale one only misses. *)
type rewrite_key = {
  rw_deletes : Bitvec.t;
  rw_copies : Bitvec.t;
  rw_pool : Expr_pool.t;
  rw_temps : string array;
}

type block = {
  instrs : Instr.t list;
  term : terminator;
  mutable text : string;
  mutable json : string;
  mutable text_len : int;
  mutable summary : summary;
  mutable events : int array;
  mutable made : made;
}

and made =
  | Nothing
  | Rewritten of rewritten
  | Split of split

and rewritten = { rw_key : rewrite_key; rw_out : block; rw_deleted : int; rw_copied : int }

and split = { sp_dst : Label.t; sp_fresh : Label.t; sp_instrs : Instr.t list; sp_src : block; sp_block : block }

let no_summary = { s_instrs = 0; s_candidates = 0; s_copies = 0; temp_run = 0 }
let zero = { s_instrs = 0; s_candidates = 0; s_copies = 0; temp_run = 0 }
let no_events = [| 0 |]

let block instrs term =
  { instrs; term; text = ""; json = ""; text_len = 0; summary = no_summary; events = no_events; made = Nothing }

(* The content of a free slot: a removed block, or capacity beyond
   [next_label].  Compared physically; its memos are never filled. *)
let dead = block [] Halt

(* ---- per-block summaries ---- *)

let temp_seed = "_h"

(* One walk over the block's instructions: the counts, and the longest
   temp-prefix run over every variable occurrence (duplicates do not
   change a maximum). *)
let summarize b =
  let n_instrs = ref 0 and n_candidates = ref 0 and n_copies = ref 0 and run = ref 0 in
  let note v =
    let r = Lcm_support.Fresh.run temp_seed v in
    if r > !run then run := r
  in
  let operand = function
    | Expr.Var v -> note v
    | Expr.Const _ -> ()
  in
  List.iter
    (fun i ->
      incr n_instrs;
      match i with
      | Instr.Assign (v, e) ->
        if Expr.is_candidate e then incr n_candidates else incr n_copies;
        note v;
        (match e with
        | Expr.Atom a | Expr.Unary (_, a) -> operand a
        | Expr.Binary (_, a, b) ->
          operand a;
          operand b)
      | Instr.Print a -> operand a
      | Instr.Effect e ->
        (match e.Instr.eff_dest with
        | Some (v, _) -> note v
        | None -> ());
        List.iter operand e.Instr.eff_args)
    b.instrs;
  (match b.term with
  | Branch (a, _, _) -> operand a
  | Goto _ | Halt -> ());
  { s_instrs = !n_instrs; s_candidates = !n_candidates; s_copies = !n_copies; temp_run = !run }

let summary b =
  if b.summary != no_summary then b.summary
  else begin
    let s = summarize b in
    b.summary <- s;
    s
  end

type t = {
  name : string;
  (* Label-indexed: labels are allocated densely in ascending order, so
     ascending slot order is allocation order. *)
  mutable slots : block array;
  mutable next_label : int;
  mutable live : int;
  (* The blocks' summaries folded over the graph ([no_summary] until a
     fold computes them); once known, every slot write keeps them current
     from the old and new block's summaries, so the folds below are O(1)
     on a graph, or a copy of one, that has been folded before. *)
  mutable totals : summary;
  entry : Label.t;
  exit_label : Label.t;
  (* Shape version: bumped by every mutation that can change the edge set or
     block set.  The adjacency cache below is rebuilt when it outruns
     [adj.adj_version]. *)
  mutable version : int;
  (* The shape version at which a full [Validate.check] last passed (or
     [split_edge] proved it still would); -1 when none has. *)
  mutable valid_at : int;
  mutable adj : adjacency option;
  (* Guards the lazy build of [adj] only: read-only consumers on several
     domains may race to the first [adjacency] call on a shared graph.  Mutations themselves remain
     single-domain — the lock makes the *cache fill* atomic, not the
     graph. *)
  adj_lock : Mutex.t;
  (* Instruction version: bumped by mutations that change block bodies
     without changing the edge/block shape ([set_instrs], [append_instr],
     [prepend_instr]).  The numbering cache below depends on instruction
     content, so it is keyed by both counters. *)
  mutable iversion : int;
  mutable numbered : (int * int * numbering) option;
  numbered_lock : Mutex.t;
}

let entry g = g.entry
let exit_label g = g.exit_label
let name g = g.name
let version g = g.version
let validated g = g.valid_at = g.version
let mark_validated g = g.valid_at <- g.version

let bump g = g.version <- g.version + 1

(* Every write of a slot goes through here, to keep known totals current.
   The maximum stays known unless the block that held it is replaced by
   one with a shorter run. *)
let set_slot g l b =
  let old = g.slots.(l) in
  g.slots.(l) <- b;
  let t = g.totals in
  if t != no_summary then begin
    let o = if old == dead then zero else summary old in
    let n = if b == dead then zero else summary b in
    let temp_run =
      if t.temp_run < 0 then -1
      else if n.temp_run >= t.temp_run then n.temp_run
      else if o.temp_run < t.temp_run then t.temp_run
      else -1
    in
    g.totals <-
      {
        s_instrs = t.s_instrs - o.s_instrs + n.s_instrs;
        s_candidates = t.s_candidates - o.s_candidates + n.s_candidates;
        s_copies = t.s_copies - o.s_copies + n.s_copies;
        temp_run;
      }
  end

let alloc_block g b =
  let l = g.next_label in
  if l = Array.length g.slots then begin
    let grown = Array.make (2 * l) dead in
    Array.blit g.slots 0 grown 0 l;
    g.slots <- grown
  end;
  set_slot g l b;
  g.next_label <- l + 1;
  g.live <- g.live + 1;
  bump g;
  l

let alloc g instrs term = alloc_block g (block instrs term)

let create ?(name = "main") () =
  let g =
    {
      name;
      slots = Array.make 16 dead;
      next_label = 0;
      live = 0;
      totals = no_summary;
      entry = 0;
      exit_label = 1;
      version = 0;
      valid_at = -1;
      adj = None;
      adj_lock = Mutex.create ();
      iversion = 0;
      numbered = None;
      numbered_lock = Mutex.create ();
    }
  in
  let entry = alloc g [] Halt in
  let exit_l = alloc g [] Halt in
  assert (entry = g.entry && exit_l = g.exit_label);
  set_slot g entry (block [] (Goto exit_l));
  g

let add_block g ~instrs ~term = alloc g instrs term

let mem g l = l >= 0 && l < g.next_label && g.slots.(l) != dead

let find g l what =
  if mem g l then g.slots.(l) else invalid_arg (Printf.sprintf "Cfg.%s: unknown label B%d" what l)

(* Live blocks in allocation order, without building a list. *)
let iter_blocks g f =
  for l = 0 to g.next_label - 1 do
    let b = Array.unsafe_get g.slots l in
    if b != dead then f l b
  done

let instrs g l = (find g l "instrs").instrs
let term g l = (find g l "term").term

let ibump g = g.iversion <- g.iversion + 1

let set_instrs g l is =
  let b = find g l "set_instrs" in
  set_slot g l (block is b.term);
  ibump g

let set_term g l t =
  let b = find g l "set_term" in
  set_slot g l (block b.instrs t);
  bump g

let append_instr g l i =
  let b = find g l "append_instr" in
  set_slot g l (block (b.instrs @ [ i ]) b.term);
  ibump g

let prepend_instr g l i =
  let b = find g l "prepend_instr" in
  set_slot g l (block (i :: b.instrs) b.term);
  ibump g

(* ---- memoised rewrites ---- *)

(* A memo's key keeps its empty rows as one shared zero-width vector. *)
let no_row = Bitvec.create 0

(* Rows equal as sets of bits, whatever their lengths: a pool extended
   since the memo was made widens the rows without changing them. *)
let[@inline] word ws n w = if w < n then Array.unsafe_get ws w else 0
let rec same_words wa na wb nb w = w >= max na nb || (word wa na w = word wb nb w && same_words wa na wb nb (w + 1))

let same_bits a b =
  same_words (Bitvec.words a) (Bitvec.words_for (Bitvec.length a)) (Bitvec.words b) (Bitvec.words_for (Bitvec.length b)) 0

let same_row kept v = if kept == no_row then Bitvec.is_empty v else same_bits kept v
let keep_row v = if Bitvec.is_empty v then no_row else Bitvec.copy v

(* A rewrite reads its pool and names only at the bits of its rows: the
   instructions it replaces or copies from compute those expressions, and
   the kills it tracks matter only for them.  So two keys with equal rows
   agree when both pools hold the same expression, and both name arrays
   the same temporary, at every bit of the rows — one pool may extend the
   other, or the names may be another array of the same strings. *)
let agree_at a b i =
  let pa = a.rw_pool and pb = b.rw_pool and ta = a.rw_temps and tb = b.rw_temps in
  (pa == pb
  || i < Expr_pool.size pa
     && i < Expr_pool.size pb
     && (let x = Expr_pool.expr pa i and y = Expr_pool.expr pb i in
         x == y || Expr.equal x y))
  && (ta == tb || (i < Array.length ta && i < Array.length tb && String.equal ta.(i) tb.(i)))

(* [agree_at] at every bit of [v], whose words are [ws] ([x] the bits of
   word [w] still to check). *)
let rec agree_row kept key ws nw w x =
  if x = 0 then w + 1 >= nw || agree_row kept key ws nw (w + 1) ws.(w + 1)
  else
    agree_at kept key ((w * Bitvec.bits_per_word) + Bitvec.ntz x) && agree_row kept key ws nw w (x land (x - 1))

let agree_rows kept key v =
  let ws = Bitvec.words v and nw = Bitvec.words_for (Bitvec.length v) in
  nw = 0 || agree_row kept key ws nw 0 ws.(0)

let same_key kept key =
  same_row kept.rw_deletes key.rw_deletes
  && same_row kept.rw_copies key.rw_copies
  && ((kept.rw_pool == key.rw_pool && kept.rw_temps == key.rw_temps)
     || (agree_rows kept key kept.rw_deletes && agree_rows kept key kept.rw_copies))

let rewrite g l key f =
  let b = find g l "rewrite" in
  let r =
    match b.made with
    | Rewritten r when same_key r.rw_key key ->
      (* A hit under another pool or names array: the memo takes them,
         so the next rewrite under them compares physically. *)
      if r.rw_key.rw_pool != key.rw_pool || r.rw_key.rw_temps != key.rw_temps then
        b.made <- Rewritten { r with rw_key = { r.rw_key with rw_pool = key.rw_pool; rw_temps = key.rw_temps } };
      r
    | Rewritten _ | Split _ | Nothing ->
      let instrs, rw_deleted, rw_copied = f b.instrs in
      let rw_key = { key with rw_deletes = keep_row key.rw_deletes; rw_copies = keep_row key.rw_copies } in
      let r = { rw_key; rw_out = block instrs b.term; rw_deleted; rw_copied } in
      b.made <- Rewritten r;
      r
  in
  set_slot g l r.rw_out;
  ibump g;
  (r.rw_deleted, r.rw_copied)

(* A memo whose block is no longer rewritten (or split) keeps its result
   alive for nothing: the blocks that stop having DELETE, COPY or
   inserted out-edges would accumulate them over a long edit stream. *)
let prune_memos g ~rewritten ~split =
  let rec go l rw sp =
    if l < g.next_label then begin
      let rw_here, rw = match rw with x :: rest when x = l -> (true, rest) | _ -> (false, rw) in
      let sp_here, sp = match sp with x :: rest when x = l -> (true, rest) | _ -> (false, sp) in
      let b = Array.unsafe_get g.slots l in
      if b != dead then begin
        match b.made with
        | Rewritten _ when not rw_here -> b.made <- Nothing
        | Rewritten { rw_out = { made = Split _; _ } as out; _ } when not sp_here -> out.made <- Nothing
        | Split _ when not sp_here -> b.made <- Nothing
        | Rewritten _ | Split _ | Nothing -> ()
      end;
      go (l + 1) rw sp
    end
  in
  go 0 rewritten split

let labels g =
  let acc = ref [] in
  for l = g.next_label - 1 downto 0 do
    if g.slots.(l) != dead then acc := l :: !acc
  done;
  !acc

(* Live labels in allocation order, without building a list. *)
let iter_labels g f =
  for l = 0 to g.next_label - 1 do
    if Array.unsafe_get g.slots l != dead then f l
  done

let num_blocks g = g.live
let label_bound g = g.next_label

let successors_of_term = function
  | Goto m -> [ m ]
  | Branch (_, a, b) -> if Label.equal a b then [ a ] else [ a; b ]
  | Halt -> []

let successors g l = successors_of_term (term g l)

(* Build the full adjacency snapshot: successor/predecessor arrays, the edge
   list, and a DFS from the entry yielding postorder / reverse postorder and
   discovery/finish times (for retreating-edge tests).  One pass per shape
   version; every traversal-hungry consumer (solver, orders, edge lists,
   criticality) reads this snapshot instead of re-deriving lists. *)
let no_succ : Label.t array = [||]

let succ_array = function
  | Goto m -> [| m |]
  | Branch (_, a, b) -> if Label.equal a b then [| a |] else [| a; b |]
  | Halt -> no_succ

let build_adjacency g =
  let bound = g.next_label in
  let labels = Array.make g.live 0 in
  let n = ref 0 in
  iter_labels g (fun l ->
      labels.(!n) <- l;
      incr n);
  let succ = Array.make bound no_succ in
  iter_blocks g (fun l b -> succ.(l) <- succ_array b.term);
  (* Predecessors, in allocation order of the source block (the order the
     old per-call cache produced): count, allocate, fill — [fill] counts
     twice over. *)
  let fill = Array.make bound 0 in
  Array.iter (fun s -> Array.iter (fun d -> fill.(d) <- fill.(d) + 1) succ.(s)) labels;
  let pred = Array.init bound (fun d -> if fill.(d) = 0 then no_succ else Array.make fill.(d) 0) in
  Array.fill fill 0 bound 0;
  Array.iter
    (fun s ->
      Array.iter
        (fun d ->
          pred.(d).(fill.(d)) <- s;
          fill.(d) <- fill.(d) + 1)
        succ.(s))
    labels;
  (* Iterative DFS from the entry; tick on discovery and on finish, exactly
     like the recursive formulation, so interval-nesting back-edge tests
     keep working. *)
  let disc = Array.make bound 0 and fin = Array.make bound 0 in
  let stack_l = Array.make (max 1 bound) 0 and stack_i = Array.make (max 1 bound) 0 in
  let sp = ref 0 and clock = ref 0 in
  (* Postorder fills [post] from the front as blocks finish. *)
  let post = Array.make bound 0 and nreach = ref 0 in
  let push l =
    incr clock;
    disc.(l) <- !clock;
    stack_l.(!sp) <- l;
    stack_i.(!sp) <- 0;
    incr sp
  in
  push g.entry;
  while !sp > 0 do
    let l = stack_l.(!sp - 1) in
    let i = stack_i.(!sp - 1) in
    if i < Array.length succ.(l) then begin
      stack_i.(!sp - 1) <- i + 1;
      let s = succ.(l).(i) in
      if disc.(s) = 0 then push s
    end
    else begin
      decr sp;
      incr clock;
      fin.(l) <- !clock;
      post.(!nreach) <- l;
      incr nreach
    end
  done;
  let nreach = !nreach in
  let post = if nreach = bound then post else Array.sub post 0 nreach in
  let rpo = Array.init nreach (fun i -> post.(nreach - 1 - i)) in
  let rpo_pos = Array.make bound (-1) in
  Array.iteri (fun i l -> rpo_pos.(l) <- i) rpo;
  (* CSR-style prefix sums over the adjacency rows: per-edge analyses index
     flat arrays by [off.(l) + i] instead of building nested per-block
     structures (or hashed edge keys) each request. *)
  let succ_off = Array.make (bound + 1) 0 and pred_off = Array.make (bound + 1) 0 in
  for l = 0 to bound - 1 do
    succ_off.(l + 1) <- succ_off.(l) + Array.length succ.(l);
    pred_off.(l + 1) <- pred_off.(l) + Array.length pred.(l)
  done;
  {
    adj_version = g.version;
    adj_bound = bound;
    adj_labels = labels;
    adj_succ = succ;
    adj_pred = pred;
    adj_succ_off = succ_off;
    adj_pred_off = pred_off;
    adj_rpo = rpo;
    adj_post = post;
    adj_rpo_pos = rpo_pos;
    adj_disc = disc;
    adj_fin = fin;
  }

let adjacency_slow g =
  Mutex.lock g.adj_lock;
  (* Fun.protect: a cache build that raises (or an injected chaos fault)
     must not leave the lock held — the next caller would deadlock. *)
  Fun.protect
    ~finally:(fun () -> Mutex.unlock g.adj_lock)
    (fun () ->
      match g.adj with
      | Some a when a.adj_version = g.version -> a
      | Some _ | None ->
        Lcm_support.Fault.inject "cfg.adjacency";
        let a = build_adjacency g in
        g.adj <- Some a;
        a)

(* Double-checked fast path: a warm snapshot whose version matches is
   returned without the lock (and without [Fun.protect]'s closures — the
   solver hits this on every phase of every request).  A racing reader at
   worst sees a stale [None]/older snapshot and falls through to the locked
   build; mutation is single-domain, so a version match never lies. *)
let adjacency g =
  match g.adj with
  | Some a when a.adj_version = g.version -> a
  | Some _ | None -> adjacency_slow g

let predecessors g l =
  ignore (find g l "predecessors");
  Array.to_list (adjacency g).adj_pred.(l)

(* The edges, grouped by source in label order, consed from the last. *)
let rec fold_row f s ds i acc = if i < 0 then acc else fold_row f s ds (i - 1) (f s (Array.unsafe_get ds i) acc)

let rec fold_rows adj f s acc = if s < 0 then acc else fold_rows adj f (s - 1) (fold_row f s adj.adj_succ.(s) (Array.length adj.adj_succ.(s) - 1) acc)

let fold_edges adj f acc = fold_rows adj f (adj.adj_bound - 1) acc

(* The edges, grouped by source in label order. *)
let edges g = fold_edges (adjacency g) (fun s d acc -> (s, d) :: acc) []

let is_critical_edge g (src, dst) =
  let adj = adjacency g in
  Array.length adj.adj_succ.(src) > 1 && Array.length adj.adj_pred.(dst) > 1

(* On a validated graph the split keeps the mark, because every fact
   [Validate.check] tests still holds: the fresh block is live, does not
   halt, is not the exit, and targets [dst], which is live and is not the
   entry (so the entry still has no predecessor and is still first); [src]
   is not the exit, so it still does not halt; and since the edge became
   a path through the fresh block, the same blocks stay reachable — [src]
   is reachable (every non-exit block of a valid graph is), hence so is
   the fresh block.  Checking the local facts is O(1); the full check
   would rebuild the adjacency.

   The two blocks a split makes are a function of [src]'s record, [dst],
   the fresh label and [instrs], so they are memoised on the record: a
   later split of the same record on the same edge, to the same label with
   the same body, reuses them with their memoised texts. *)
let split_edge ?(instrs = []) g src dst =
  let b = find g src "split_edge" in
  if not (List.exists (Label.equal dst) (successors_of_term b.term)) then
    invalid_arg (Printf.sprintf "Cfg.split_edge: no edge B%d -> B%d" src dst);
  let was_valid = validated g in
  let fresh = g.next_label in
  let m =
    match b.made with
    | Split m when Label.equal m.sp_dst dst && Label.equal m.sp_fresh fresh && m.sp_instrs = instrs -> m
    | Split _ | Rewritten _ | Nothing ->
      let redirect l = if Label.equal l dst then fresh else l in
      let term =
        match b.term with
        | Goto l -> Goto (redirect l)
        | Branch (c, l1, l2) -> Branch (c, redirect l1, redirect l2)
        | Halt -> assert false
      in
      (* Redirecting changes neither the body nor the branch operand: the
         counts and events still hold, only the text names the new
         target. *)
      let sp_src = { (block b.instrs term) with summary = b.summary; events = b.events } in
      let m = { sp_dst = dst; sp_fresh = fresh; sp_instrs = instrs; sp_src; sp_block = block instrs (Goto dst) } in
      b.made <- Split m;
      m
  in
  ignore (alloc_block g m.sp_block);
  set_slot g src m.sp_src;
  bump g;
  if
    was_valid
    && (not (Label.equal src g.exit_label))
    && (not (Label.equal dst g.entry))
    && mem g dst
  then mark_validated g;
  fresh

let remove_unreachable g =
  let keep = Array.make g.next_label false in
  let rec go l =
    if mem g l && not keep.(l) then begin
      keep.(l) <- true;
      List.iter go (successors g l)
    end
  in
  go g.entry;
  (* The exit block must survive even if no path reaches it (e.g. an
     infinite loop); analyses rely on its existence. *)
  keep.(g.exit_label) <- true;
  let removed = ref false in
  iter_blocks g (fun l _ ->
      if not keep.(l) then begin
        set_slot g l dead;
        g.live <- g.live - 1;
        removed := true
      end);
  if !removed then bump g

let merge_straight_pairs g =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if mem g l && not (Label.equal l g.exit_label) then
          match term g l with
          | Goto m
            when (not (Label.equal m g.exit_label))
                 && (not (Label.equal m l))
                 && List.length (predecessors g m) = 1 ->
            let mb = find g m "merge" in
            let lb = find g l "merge" in
            set_slot g l (block (lb.instrs @ mb.instrs) mb.term);
            set_slot g m dead;
            g.live <- g.live - 1;
            bump g;
            changed := true
          | Goto _ | Branch _ | Halt -> ())
      (labels g)
  done

(* Copy-on-write: the slot array is copied, the block records are shared.
   A snapshot is immutable once built, so the copy also starts at the
   source's shape version and shares its warm snapshot and its validation
   mark: a retained graph's copy then validates and solves without
   rebuilding the adjacency.  The copy's first shape edit bumps its own
   version past both, so it builds a fresh snapshot and leaves the shared
   one (still the source's) untouched. *)
let copy g =
  {
    g with
    slots = Array.copy g.slots;
    adj = (match g.adj with Some a when a.adj_version = g.version -> g.adj | Some _ | None -> None);
    adj_lock = Mutex.create ();
    iversion = 0;
    numbered = None;
    numbered_lock = Mutex.create ();
  }

(* ---- numbering ----

   A candidate expression is keyed by its operator and operand codes
   ({!Vars}): [op lor (a lsl 4) lor (b lsl 33)], the codes of a
   commutative operator's operands in ascending order, so that [a + b]
   and [b + a] share a key exactly as they share a pool entry. *)

let binops = Expr.[| Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or |]
let unops = Expr.[| Neg; Not |]

let binop_code = function
  | Expr.Add -> 0
  | Expr.Sub -> 1
  | Expr.Mul -> 2
  | Expr.Div -> 3
  | Expr.Mod -> 4
  | Expr.Lt -> 5
  | Expr.Le -> 6
  | Expr.Gt -> 7
  | Expr.Ge -> 8
  | Expr.Eq -> 9
  | Expr.Ne -> 10
  | Expr.And -> 11
  | Expr.Or -> 12

let unop_code = function
  | Expr.Neg -> 13
  | Expr.Not -> 14

let code_limit = 1 lsl 29

let check_code c = if c < 0 || c >= code_limit then invalid_arg "Cfg: operand code out of range"

let unary_key op a =
  check_code a;
  unop_code op lor (a lsl 4)

let binary_key op a b =
  check_code a;
  check_code b;
  let a, b = if b < a && Expr.is_commutative op then (b, a) else (a, b) in
  binop_code op lor (a lsl 4) lor (b lsl 33)

let expr_of_key vars key =
  let op = key land 15 and a = Vars.code_operand vars ((key lsr 4) land (code_limit - 1)) in
  if op >= 13 then Expr.Unary (unops.(op - 13), a)
  else Expr.Binary (binops.(op), a, Vars.code_operand vars (key lsr 33))

(* A growable int buffer. *)
type buf = { mutable data : int array; mutable len : int }

let buf () = { data = Array.make 16 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* A block's events with candidates still as keys, every name interned
   into [vars]: what the builder records as it reads, and what a graph
   built otherwise derives from its instructions. *)
let key_events vars out instrs =
  out.len <- 0;
  push out 0;
  let write v = push out (-1 - Vars.intern vars v) in
  let code = Vars.operand_code vars in
  List.iter
    (function
      | Instr.Assign (v, e) ->
        (match e with
        | Expr.Atom _ -> ()
        | Expr.Unary (op, a) -> push out (unary_key op (code a))
        | Expr.Binary (op, a, b) ->
          let a = code a in
          push out (binary_key op a (code b)));
        write v
      | Instr.Print _ -> ()
      | Instr.Effect e ->
        (match e.Instr.eff_dest with
        | Some (v, _) -> write v
        | None -> ());
        List.iter
          (function
            | Expr.Var v -> write v
            | Expr.Const _ -> ())
          e.Instr.eff_args)
    instrs;
  contents out

(* Key -> pool index, open addressing ([vals]: index + 1, 0 empty),
   slots picked by Fibonacci hashing: the top [bits] bits of the key
   times the golden ratio. *)
type keytab = { mutable keys : int array; mutable vals : int array; mutable n : int; mutable bits : int }

let rec kprobe t key i =
  if Array.unsafe_get t.vals i = 0 || Array.unsafe_get t.keys i = key then i
  else kprobe t key ((i + 1) land (Array.length t.keys - 1))

let kslot t key = kprobe t key ((key * 0x4F1BBCDCBFA53E0B) lsr (63 - t.bits))

let kgrow t =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make (2 * Array.length keys) 0;
  t.vals <- Array.make (2 * Array.length keys) 0;
  t.bits <- t.bits + 1;
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        let s = kslot t keys.(i) in
        t.keys.(s) <- keys.(i);
        t.vals.(s) <- v
      end)
    vals

(* Number the candidates of the key events of the labels [iter] visits
   (ascending) in order of first occurrence, rewriting every key into its
   pool index in place and stamping every event array with the
   numbering; the numbering those events now belong to.  The blocks with
   no events share one array. *)
let number_events vars (evs : int array array) iter =
  (* Sized from the candidate occurrences, so nothing grows. *)
  let occurrences = ref 0 in
  iter (fun l -> Array.iter (fun e -> if e >= 0 then incr occurrences) evs.(l); decr occurrences);
  let occurrences = !occurrences in
  let rec bits b = if 1 lsl b >= occurrences then b else bits (b + 1) in
  let bits = bits 6 in
  let t = { keys = Array.make (1 lsl bits) 0; vals = Array.make (1 lsl bits) 0; n = 0; bits } in
  let pool = Expr_pool.create ~size:occurrences () in
  let reads = { data = Array.make (max 1 (2 * occurrences)) 0; len = 0 } in
  let read code = push reads (if code land 1 = 0 then code lsr 1 else -1) in
  iter (fun l ->
      let ev = evs.(l) in
      for i = 1 to Array.length ev - 1 do
        let key = Array.unsafe_get ev i in
        if key >= 0 then begin
          let s = kslot t key in
          let idx =
            if t.vals.(s) <> 0 then t.vals.(s) - 1
            else begin
              let idx = Expr_pool.add pool (expr_of_key vars key) in
              if idx <> t.n then invalid_arg "Cfg: candidate keys disagree with the pool";
              t.keys.(s) <- key;
              t.vals.(s) <- idx + 1;
              t.n <- idx + 1;
              read ((key lsr 4) land (code_limit - 1));
              if key land 15 >= 13 then push reads (-1) else read (key lsr 33);
              if 2 * t.n > Array.length t.keys then kgrow t;
              idx
            end
          in
          Array.unsafe_set ev i idx
        end
      done);
  let nb = numbering_record pool vars (contents reads) in
  let empty = [| nb.id |] in
  iter (fun l -> if Array.length evs.(l) = 1 then evs.(l) <- empty else evs.(l).(0) <- nb.id);
  nb

(* The events of [instrs] relative to a numbering they were not numbered
   with: names and candidates are looked up, never added.  Raises
   [Not_found] on a candidate the pool lacks. *)
let events_against nb instrs =
  let out = buf () in
  push out nb.id;
  let write v =
    let i = Vars.find nb.vars v in
    if i >= 0 then push out (-1 - i)
  in
  List.iter
    (function
      | Instr.Assign (v, e) ->
        if Expr.is_candidate e then push out (Expr_pool.index_exn nb.pool e);
        write v
      | Instr.Print _ -> ()
      | Instr.Effect e ->
        (match e.Instr.eff_dest with
        | Some (v, _) -> write v
        | None -> ());
        List.iter
          (function
            | Expr.Var v -> write v
            | Expr.Const _ -> ())
          e.Instr.eff_args)
    instrs;
  contents out

(* Number a graph that no builder numbered: every name interned and every
   candidate keyed as a reader would, in label order, so the pool is the
   one the builder fills for the same graph. *)
let build_numbering g =
  let vars = Vars.create ~size:g.live () and out = buf () in
  let evs = Array.make g.next_label [||] in
  let iter f = iter_blocks g (fun l _ -> f l) in
  iter_blocks g (fun l b -> evs.(l) <- key_events vars out b.instrs);
  let nb = number_events vars evs iter in
  iter_blocks g (fun l b -> b.events <- evs.(l));
  nb

(* Locked cache fill, double-checked: a competitor may have completed the
   build while this caller waited on the lock. *)
let numbering_slow g =
  Mutex.lock g.numbered_lock;
  match
    match g.numbered with
    | Some (v, iv, nb) when v = g.version && iv = g.iversion -> nb
    | Some _ | None ->
      let nb = build_numbering g in
      g.numbered <- Some (g.version, g.iversion, nb);
      nb
  with
  | nb ->
    Mutex.unlock g.numbered_lock;
    nb
  | exception e ->
    Mutex.unlock g.numbered_lock;
    raise e

(* Unchanged graphs serve the memo (a builder-made graph is born with
   it).  The unlocked fast path is safe for the same reason as
   {!adjacency}'s: the cache slot is written once per (version, iversion)
   under the lock, mutations are single-domain, and a racing reader at
   worst misses and takes the locked path. *)
let numbering g =
  match g.numbered with
  | Some (v, iv, nb) when v = g.version && iv = g.iversion -> nb
  | Some _ | None -> numbering_slow g

let candidate_pool g = (numbering g).pool
let numbering_pool nb = nb.pool
let numbering_vars nb = Vars.size nb.vars
let numbering_reads nb = nb.reads
let numbering_var nb name = Vars.find nb.vars name

(* A numbering of a pool that is not [g]'s own (a caller-supplied one):
   its table holds only the variables the pool's expressions read, the
   only ones whose writes matter to it. *)
let numbering_of_pool pool =
  let vars = Vars.create () in
  let reads = buf () in
  let read = function
    | Expr.Var v -> push reads (Vars.intern vars v)
    | Expr.Const _ -> push reads (-1)
  in
  Expr_pool.iter
    (fun _ e ->
      match e with
      | Expr.Atom a ->
        read a;
        push reads (-1)
      | Expr.Unary (_, a) ->
        read a;
        push reads (-1)
      | Expr.Binary (_, a, b) ->
        read a;
        read b)
    pool;
  numbering_record pool vars (contents reads)

(* [nb] with the candidates [es] appended to a copy of its pool: the same
   id and table, so events stamped with [nb] stay valid for the extension
   as long as a block numbered against [nb] computes none of [es], which
   the caller checks. *)
let extend_numbering nb es =
  let pool = Expr_pool.extend nb.pool es in
  let n0 = Expr_pool.size nb.pool and n = Expr_pool.size pool in
  let reads = Array.make (2 * n) (-1) in
  Array.blit nb.reads 0 reads 0 (2 * n0);
  let read k = function
    | Expr.Var v ->
      let i = Vars.find nb.vars v in
      if i < 0 then invalid_arg (Printf.sprintf "Cfg.extend_numbering: %s is not numbered" v);
      reads.(k) <- i
    | Expr.Const _ -> ()
  in
  for i = n0 to n - 1 do
    match Expr_pool.expr pool i with
    | Expr.Atom a | Expr.Unary (_, a) -> read (2 * i) a
    | Expr.Binary (_, a, b) ->
      read (2 * i) a;
      read ((2 * i) + 1) b
  done;
  { nb with pool; reads }

let numbering_for g pool =
  match g.numbered with
  | Some (v, iv, nb) when v = g.version && iv = g.iversion && nb.pool == pool -> nb
  | Some _ | None -> numbering_of_pool pool

(* Filling the memo is idempotent per numbering, like the text memo. *)
let events g nb l =
  let b = find g l "events" in
  let ev = b.events in
  if Array.unsafe_get ev 0 = nb.id then ev
  else begin
    let ev = events_against nb b.instrs in
    b.events <- ev;
    ev
  end

(* ---- assembly ----

   The builder ({!Build}) hands over every block at once, labels dense
   from 0 (the entry) and 1 (the exit), events keyed.  One DFS from the
   entry gives reachability; with [prune], blocks it does not reach are
   dropped as {!remove_unreachable} drops them (the exit always stays).
   The graph's structural facts are then checked from the terminators and
   that DFS — every fact {!Validate} tests, reported in its order and
   words — and a graph that passes is born marked, with its numbering
   memo filled in label order. *)

let check_assembled n ~terms ~live ~reached =
  let issues = ref [] in
  let report fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let entry_preds = ref false in
  let target l dst =
    if dst < 0 || dst >= n || Bytes.get live dst = '\000' then
      report "%a targets dead label %a" Label.pp l Label.pp dst;
    if dst = 0 then entry_preds := true
  in
  for l = 0 to n - 1 do
    if Bytes.get live l <> '\000' then
      match terms.(l) with
      | Halt -> if l <> 1 then report "non-exit block %a halts" Label.pp l
      | Goto a ->
        target l a;
        if l = 1 then report "exit block does not halt"
      | Branch (_, a, b) ->
        target l a;
        if b <> a then target l b;
        if l = 1 then report "exit block does not halt"
  done;
  if !entry_preds then report "entry block has predecessors";
  for l = 0 to n - 1 do
    if Bytes.get live l <> '\000' && Bytes.get reached l = '\000' && l <> 1 then
      report "block %a is unreachable" Label.pp l
  done;
  List.rev !issues

(* Blocks reached from the entry: a DFS over [terms]. *)
let rec visit n terms seen l =
  if l >= 0 && l < n && Bytes.get seen l = '\000' then begin
    Bytes.set seen l '\001';
    match terms.(l) with
    | Goto a -> visit n terms seen a
    | Branch (_, a, b) ->
      visit n terms seen a;
      visit n terms seen b
    | Halt -> ()
  end

let reach n terms =
  let seen = Bytes.make n '\000' in
  visit n terms seen 0;
  seen

let assemble ~name ~vars ~blocks:n ~instrs ~terms ~events ~prune =
  if n < 2 || Array.length instrs < n || Array.length terms < n || Array.length events < n then
    invalid_arg "Cfg.assemble: block arrays";
  let reached = reach n terms in
  let live = if prune then Bytes.mapi (fun l r -> if l = 1 then '\001' else r) reached else Bytes.make n '\001' in
  match check_assembled n ~terms ~live ~reached with
  | _ :: _ as issues -> Error issues
  | [] ->
    let iter f =
      for l = 0 to n - 1 do
        if Bytes.get live l <> '\000' then f l
      done
    in
    let nb = number_events vars events iter in
    (* The capacity a graph grown block by block would have: the edits
       that follow (a transform's edge splits) find the same room. *)
    let rec capacity c = if c >= n then c else capacity (2 * c) in
    let slots = Array.make (capacity 16) dead in
    let live = ref 0 in
    iter (fun l ->
        incr live;
        slots.(l) <- { (block instrs.(l) terms.(l)) with events = events.(l) });
    Ok
      {
        name;
        slots;
        next_label = n;
        live = !live;
        totals = no_summary;
        entry = 0;
        exit_label = 1;
        version = 0;
        valid_at = 0;
        adj = None;
        adj_lock = Mutex.create ();
        iversion = 0;
        numbered = Some (0, 0, nb);
        numbered_lock = Mutex.create ();
      }

let all_vars g =
  let tbl = Hashtbl.create 64 in
  let note v = Hashtbl.replace tbl v () in
  iter_blocks g (fun _ b ->
      List.iter
        (fun i ->
          Option.iter note (Instr.defs i);
          List.iter note (Instr.uses i))
        b.instrs;
      match b.term with
      | Branch (Expr.Var v, _, _) -> note v
      | Branch (Expr.Const _, _, _) | Goto _ | Halt -> ());
  List.sort String.compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])

(* One fold of the blocks' memoised summaries, which then become the
   maintained totals.  Filling [totals] is idempotent, like the block
   memos. *)
let fold_totals g =
  let n_instrs = ref 0 and n_candidates = ref 0 and n_copies = ref 0 and run = ref 0 in
  iter_blocks g (fun _ b ->
      let s = summary b in
      n_instrs := !n_instrs + s.s_instrs;
      n_candidates := !n_candidates + s.s_candidates;
      n_copies := !n_copies + s.s_copies;
      if s.temp_run > !run then run := s.temp_run);
  let t = { s_instrs = !n_instrs; s_candidates = !n_candidates; s_copies = !n_copies; temp_run = !run } in
  g.totals <- t;
  t

(* The sums stay exact when only the maximum run is unknown. *)
let counts g =
  let t = if g.totals != no_summary then g.totals else fold_totals g in
  { n_instrs = t.s_instrs; n_candidates = t.s_candidates; n_copies = t.s_copies }

let num_instrs g = (counts g).n_instrs
let num_candidate_occurrences g = (counts g).n_candidates

let temp_prefix g =
  let t = g.totals in
  let t = if t != no_summary && t.temp_run >= 0 then t else fold_totals g in
  Lcm_support.Fresh.extend temp_seed t.temp_run

(* ---- printing ---- *)

let add_terminator buf = function
  | Goto l ->
    Buffer.add_string buf "goto ";
    Label.add_to_buffer buf l
  | Branch (c, a, b) ->
    Buffer.add_string buf "if ";
    Expr.add_operand buf c;
    Buffer.add_string buf " then ";
    Label.add_to_buffer buf a;
    Buffer.add_string buf " else ";
    Label.add_to_buffer buf b
  | Halt -> Buffer.add_string buf "halt"

let pp_terminator ppf t =
  let buf = Buffer.create 32 in
  add_terminator buf t;
  Format.pp_print_string ppf (Buffer.contents buf)

(* A block's text, ["\nBn:"], then ["\n  "] and each instruction, then
   ["\n  "] and the terminator, rendered into [buf]. *)
let render buf l b =
  Buffer.clear buf;
  Buffer.add_char buf '\n';
  Label.add_to_buffer buf l;
  Buffer.add_char buf ':';
  List.iter
    (fun i ->
      Buffer.add_string buf "\n  ";
      Instr.add_to_buffer buf i)
    b.instrs;
  Buffer.add_string buf "\n  ";
  add_terminator buf b.term

(* A block keeps one of its two renderings: the text until it is first
   escaped for a response, then only the escaped text, from which the
   text is recovered when the graph is printed again (on a serving path
   that is a journal compaction, rarely).  So a retained graph does not
   hold its program twice.  Either memo is filled from the other, or
   rendered through [buf] (a scratch buffer the caller reuses across
   blocks), and a block that has neither is rendered: a racing domain
   that sees the memos change under it still writes the same bytes. *)
let text_length buf l b =
  if b.text <> "" then String.length b.text
  else if b.json <> "" then if b.text_len > 0 then b.text_len else Lcm_obs.Json.unescaped_length b.json
  else begin
    render buf l b;
    let s = Buffer.contents buf in
    b.text <- s;
    String.length s
  end

let write_text buf l b out pos =
  let t = b.text in
  if t <> "" then begin
    Bytes.blit_string t 0 out pos (String.length t);
    pos + String.length t
  end
  else begin
    let j = b.json in
    if j <> "" then Lcm_obs.Json.unescape_into j out pos
    else begin
      render buf l b;
      Buffer.blit buf 0 out pos (Buffer.length buf);
      pos + Buffer.length buf
    end
  end

(* The graph's one printer: a header line, then every block's text in
   allocation order, with no trailing newline.  An unchanged block is not
   re-rendered, so printing a patched copy costs the edited blocks plus
   one blit per block.  The text is the canonical form [digest] hashes,
   so it must stay byte-stable. *)
let header g =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "cfg ";
  Buffer.add_string buf g.name;
  Buffer.add_string buf " (entry ";
  Label.add_to_buffer buf g.entry;
  Buffer.add_string buf ", exit ";
  Label.add_to_buffer buf g.exit_label;
  Buffer.add_char buf ')';
  Buffer.contents buf

let to_string g =
  let header = header g in
  let scratch = Buffer.create 256 in
  let len = ref (String.length header) in
  iter_blocks g (fun l b -> len := !len + text_length scratch l b);
  let out = Bytes.create !len in
  Bytes.blit_string header 0 out 0 (String.length header);
  let pos = ref (String.length header) in
  iter_blocks g (fun l b -> pos := write_text scratch l b out !pos);
  Bytes.unsafe_to_string out

(* The block's escaped-text memo, made on first use from its text (which
   it then replaces) or rendered through [buf]. *)
let block_json buf l b =
  let j = b.json in
  if j <> "" then j
  else begin
    let t = b.text in
    let t =
      if t <> "" then t
      else begin
        render buf l b;
        Buffer.contents buf
      end
    in
    Buffer.clear buf;
    Lcm_obs.Json.escape_into buf t;
    let s = Buffer.contents buf in
    b.text_len <- String.length t;
    b.json <- s;
    b.text <- "";
    s
  end

(* JSON escaping maps a concatenation to the concatenation of the escaped
   parts, so the literal is the escaped header and the blocks' escaped
   memos between quotes: its length is their sum, and writing it is one
   blit per block. *)
let json g =
  let header =
    let buf = Buffer.create 32 in
    Lcm_obs.Json.escape_into buf (header g);
    Buffer.contents buf
  in
  let scratch = Buffer.create 256 in
  let len = ref (String.length header + 2) in
  iter_blocks g (fun l b -> len := !len + String.length (block_json scratch l b));
  let write out at =
    Bytes.set out at '"';
    Bytes.blit_string header 0 out (at + 1) (String.length header);
    let pos = ref (at + 1 + String.length header) in
    iter_blocks g (fun l b ->
        let s = block_json scratch l b in
        Bytes.blit_string s 0 out !pos (String.length s);
        pos := !pos + String.length s);
    Bytes.set out !pos '"'
  in
  (!len, write)

let to_json g =
  let len, write = json g in
  let out = Bytes.create len in
  write out 0;
  Bytes.unsafe_to_string out

let pp ppf g = Format.pp_print_string ppf (to_string g)

(* Content address of the printed form.  [to_string] prints blocks in
   allocation order with dense labels, so two graphs that parse to the
   same structure digest identically — the serving cache and the shard
   router both key on this. *)
let digest g = Digest.to_hex (Digest.string (to_string g))
