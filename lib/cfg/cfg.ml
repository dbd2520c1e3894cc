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
  adj_labels : Label.t list;
  adj_succ : Label.t array array;
  adj_pred : Label.t array array;
  adj_pred_lists : Label.t list array;
  adj_edges : (Label.t * Label.t) list;
  adj_succ_off : int array;
  adj_pred_off : int array;
  adj_rpo : Label.t list;
  adj_post : Label.t list;
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

(* One block.  The contents are immutable: an edit replaces the record in
   its slot, so [copy] can share every record and a mutation of either
   graph never shows through in the other.  The two mutable fields are
   memos of the contents, filled on first use:
   - [text]: the block's canonical rendering, ["\nBn:"], then ["\n  "]
     and each instruction, then ["\n  "] and the terminator ([""] until
     rendered; a rendered block is never empty).  It names the block's
     label, so a record lives in one slot only.
   - [summary]: its counts and temp-prefix run ([no_summary] until
     counted).
   Filling a memo is idempotent — every domain that races to fill one
   computes the same value from the same immutable contents, and a record
   or string is published whole — so records shared between graphs, or
   read by several domains, need no lock. *)
type block = {
  instrs : Instr.t list;
  term : terminator;
  mutable text : string;
  mutable summary : summary;
}

let no_summary = { s_instrs = 0; s_candidates = 0; s_copies = 0; temp_run = 0 }
let zero = { s_instrs = 0; s_candidates = 0; s_copies = 0; temp_run = 0 }

(* The content of a free slot: a removed block, or capacity beyond
   [next_label].  Compared physically; its memos are never filled. *)
let dead = { instrs = []; term = Halt; text = ""; summary = no_summary }

let block instrs term = { instrs; term; text = ""; summary = no_summary }

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
     [prepend_instr]).  The candidate-pool cache below depends on
     instruction content, so it is keyed by both counters. *)
  mutable iversion : int;
  mutable cpool : (int * int * Expr_pool.t) option;
  cpool_lock : Mutex.t;
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

let alloc g instrs term =
  let l = g.next_label in
  if l = Array.length g.slots then begin
    let grown = Array.make (2 * l) dead in
    Array.blit g.slots 0 grown 0 l;
    g.slots <- grown
  end;
  set_slot g l (block instrs term);
  g.next_label <- l + 1;
  g.live <- g.live + 1;
  bump g;
  l

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
      cpool = None;
      cpool_lock = Mutex.create ();
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

let labels_of_slots g =
  let acc = ref [] in
  for l = g.next_label - 1 downto 0 do
    if g.slots.(l) != dead then acc := l :: !acc
  done;
  !acc

(* Serve from the adjacency snapshot when it is warm: steady-state solves
   call this several times per request, and rebuilding the list each time
   costs ~3 words per block.  Cold (or mid-mutation) graphs build it from
   the slots. *)
let labels g =
  match g.adj with
  | Some a when a.adj_version = g.version -> a.adj_labels
  | Some _ | None -> labels_of_slots g
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
let build_adjacency g =
  let bound = g.next_label in
  let labels = labels_of_slots g in
  let succ = Array.make bound [||] in
  iter_blocks g (fun l b -> succ.(l) <- Array.of_list (successors_of_term b.term));
  (* Predecessors, in allocation order of the source block (the order the
     old per-call cache produced). *)
  let pred_count = Array.make bound 0 in
  List.iter
    (fun s -> Array.iter (fun d -> pred_count.(d) <- pred_count.(d) + 1) succ.(s))
    labels;
  let pred = Array.init bound (fun d -> Array.make pred_count.(d) 0) in
  let fill = Array.make bound 0 in
  List.iter
    (fun s ->
      Array.iter
        (fun d ->
          pred.(d).(fill.(d)) <- s;
          fill.(d) <- fill.(d) + 1)
        succ.(s))
    labels;
  let pred_lists = Array.map Array.to_list pred in
  let edges =
    List.concat_map (fun s -> List.map (fun d -> (s, d)) (Array.to_list succ.(s))) labels
  in
  (* Iterative DFS from the entry; tick on discovery and on finish, exactly
     like the recursive formulation, so interval-nesting back-edge tests
     keep working. *)
  let disc = Array.make bound 0 and fin = Array.make bound 0 in
  let stack_l = Array.make (max 1 bound) 0 and stack_i = Array.make (max 1 bound) 0 in
  let sp = ref 0 and clock = ref 0 in
  let finish_acc = ref [] in
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
      finish_acc := l :: !finish_acc
    end
  done;
  let rpo = !finish_acc in
  let post = List.rev rpo in
  let rpo_pos = Array.make bound (-1) in
  List.iteri (fun i l -> rpo_pos.(l) <- i) rpo;
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
    adj_pred_lists = pred_lists;
    adj_edges = edges;
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
  (adjacency g).adj_pred_lists.(l)

let edges g = (adjacency g).adj_edges

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
   would rebuild the adjacency. *)
let split_edge g src dst =
  let b = find g src "split_edge" in
  if not (List.exists (Label.equal dst) (successors_of_term b.term)) then
    invalid_arg (Printf.sprintf "Cfg.split_edge: no edge B%d -> B%d" src dst);
  let was_valid = validated g in
  let fresh = alloc g [] (Goto dst) in
  let redirect l = if Label.equal l dst then fresh else l in
  let term =
    match b.term with
    | Goto l -> Goto (redirect l)
    | Branch (c, l1, l2) -> Branch (c, redirect l1, redirect l2)
    | Halt -> assert false
  in
  (* Redirecting changes neither the body nor the branch operand: the
     counts still hold, only the text names the new target. *)
  set_slot g src { b with term; text = "" };
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
    cpool = None;
    cpool_lock = Mutex.create ();
  }

let build_candidate_pool g =
  let pool = Expr_pool.create () in
  iter_blocks g (fun _ b ->
      List.iter
        (fun i ->
          match Instr.candidate i with
          | Some e -> ignore (Expr_pool.add pool e)
          | None -> ())
        b.instrs);
  pool

(* Locked cache fill, double-checked: a competitor may have completed the
   build while this caller waited on the lock. *)
let candidate_pool_slow g =
  Mutex.lock g.cpool_lock;
  match
    match g.cpool with
    | Some (v, iv, p) when v = g.version && iv = g.iversion -> p
    | Some _ | None ->
      let p = build_candidate_pool g in
      g.cpool <- Some (g.version, g.iversion, p);
      p
  with
  | p ->
    Mutex.unlock g.cpool_lock;
    p
  | exception e ->
    Mutex.unlock g.cpool_lock;
    raise e

(* Rebuilding the pool costs a full instruction scan plus a hashtable per
   call, which dominated the steady-state residue of the local-predicate
   phase; unchanged graphs serve the memo.  The unlocked fast path is safe
   for the same reason as {!adjacency}'s: the cache slot is written once
   per (version, iversion) under the lock, mutations are single-domain,
   and a racing reader at worst misses and takes the locked path. *)
let candidate_pool g =
  match g.cpool with
  | Some (v, iv, p) when v = g.version && iv = g.iversion -> p
  | Some _ | None -> candidate_pool_slow g

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

(* The block's text memo, rendered through [buf] (a scratch buffer the
   caller reuses across blocks) on first use. *)
let block_text buf l b =
  if b.text <> "" then b.text
  else begin
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
    add_terminator buf b.term;
    let s = Buffer.contents buf in
    b.text <- s;
    s
  end

(* The graph's one printer: a header line, then every block's memoised
   text in allocation order, with no trailing newline.  An unchanged block
   is not re-rendered, so printing a patched copy costs the edited blocks
   plus one blit per block.  The text is the canonical form [digest]
   hashes, so it must stay byte-stable. *)
let to_string g =
  let header =
    let buf = Buffer.create 32 in
    Buffer.add_string buf "cfg ";
    Buffer.add_string buf g.name;
    Buffer.add_string buf " (entry ";
    Label.add_to_buffer buf g.entry;
    Buffer.add_string buf ", exit ";
    Label.add_to_buffer buf g.exit_label;
    Buffer.add_char buf ')';
    Buffer.contents buf
  in
  let scratch = Buffer.create 256 in
  let len = ref (String.length header) in
  iter_blocks g (fun l b -> len := !len + String.length (block_text scratch l b));
  let out = Bytes.create !len in
  Bytes.blit_string header 0 out 0 (String.length header);
  let pos = ref (String.length header) in
  iter_blocks g (fun _ b ->
      let n = String.length b.text in
      Bytes.blit_string b.text 0 out !pos n;
      pos := !pos + n);
  Bytes.unsafe_to_string out

let pp ppf g = Format.pp_print_string ppf (to_string g)

(* Content address of the printed form.  [to_string] prints blocks in
   allocation order with dense labels, so two graphs that parse to the
   same structure digest identically — the serving cache and the shard
   router both key on this. *)
let digest g = Digest.to_hex (Digest.string (to_string g))
