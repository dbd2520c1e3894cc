module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool

type terminator =
  | Goto of Label.t
  | Branch of Expr.operand * Label.t * Label.t
  | Halt

(* [tail_rev] holds appended instructions in reverse; [force_block] folds it
   back into [instrs] on demand, so a burst of [append_instr] calls is O(1)
   amortized instead of O(n²) list concatenation. *)
type block = { mutable instrs : Instr.t list; mutable tail_rev : Instr.t list; mutable term : terminator }

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

type t = {
  name : string;
  blocks : (Label.t, block) Hashtbl.t;
  mutable order : Label.t list;  (* reversed allocation order *)
  mutable next_label : int;
  entry : Label.t;
  exit_label : Label.t;
  (* Shape version: bumped by every mutation that can change the edge set or
     block set.  The adjacency cache below is rebuilt when it outruns
     [adj.adj_version]. *)
  mutable version : int;
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

let bump g = g.version <- g.version + 1

let alloc g instrs term =
  let l = g.next_label in
  g.next_label <- l + 1;
  Hashtbl.replace g.blocks l { instrs; tail_rev = []; term };
  g.order <- l :: g.order;
  bump g;
  l

let create ?(name = "main") () =
  let g =
    {
      name;
      blocks = Hashtbl.create 64;
      order = [];
      next_label = 0;
      entry = 0;
      exit_label = 1;
      version = 0;
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
  (Hashtbl.find g.blocks entry).term <- Goto exit_l;
  g

let add_block g ~instrs ~term = alloc g instrs term

let mem g l = Hashtbl.mem g.blocks l

let find g l what =
  (* Exception form rather than [find_opt]: block lookup runs once per
     block per analysis phase, and the [Some] per hit adds up. *)
  match Hashtbl.find g.blocks l with
  | b -> b
  | exception Not_found -> invalid_arg (Printf.sprintf "Cfg.%s: unknown label B%d" what l)

let force_block b =
  if b.tail_rev <> [] then begin
    b.instrs <- b.instrs @ List.rev b.tail_rev;
    b.tail_rev <- []
  end

let instrs g l =
  let b = find g l "instrs" in
  force_block b;
  b.instrs

let term g l = (find g l "term").term

let ibump g = g.iversion <- g.iversion + 1

let set_instrs g l is =
  let b = find g l "set_instrs" in
  b.instrs <- is;
  b.tail_rev <- [];
  ibump g

let set_term g l t =
  (find g l "set_term").term <- t;
  bump g

let append_instr g l i =
  let b = find g l "append_instr" in
  b.tail_rev <- i :: b.tail_rev;
  ibump g

let prepend_instr g l i =
  let b = find g l "prepend_instr" in
  b.instrs <- i :: b.instrs;
  ibump g

(* Serve from the adjacency snapshot when it is warm: steady-state solves
   call this several times per request, and rebuilding the list each time
   costs ~3 words per block.  Cold (or mid-mutation) graphs keep the
   historical fresh build. *)
let labels g =
  match g.adj with
  | Some a when a.adj_version = g.version -> a.adj_labels
  | Some _ | None -> List.rev g.order
let num_blocks g = Hashtbl.length g.blocks
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
  let labels = List.rev g.order in
  let succ = Array.make bound [||] in
  List.iter (fun l -> succ.(l) <- Array.of_list (successors g l)) labels;
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

let split_edge g src dst =
  let b = find g src "split_edge" in
  if not (List.exists (Label.equal dst) (successors g src)) then
    invalid_arg (Printf.sprintf "Cfg.split_edge: no edge B%d -> B%d" src dst);
  let fresh = alloc g [] (Goto dst) in
  let redirect l = if Label.equal l dst then fresh else l in
  (match b.term with
  | Goto l -> b.term <- Goto (redirect l)
  | Branch (c, l1, l2) -> b.term <- Branch (c, redirect l1, redirect l2)
  | Halt -> assert false);
  bump g;
  fresh

let reachable_set g =
  let seen = Hashtbl.create 64 in
  let rec go l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      List.iter go (successors g l)
    end
  in
  go g.entry;
  seen

let remove_unreachable g =
  let keep = reachable_set g in
  (* The exit block must survive even if no path reaches it (e.g. an
     infinite loop); analyses rely on its existence. *)
  Hashtbl.replace keep g.exit_label ();
  let dead = Hashtbl.fold (fun l _ acc -> if Hashtbl.mem keep l then acc else l :: acc) g.blocks [] in
  if dead <> [] then begin
    List.iter (Hashtbl.remove g.blocks) dead;
    g.order <- List.filter (fun l -> Hashtbl.mem keep l) g.order;
    bump g
  end

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
            force_block mb;
            force_block lb;
            lb.instrs <- lb.instrs @ mb.instrs;
            lb.term <- mb.term;
            Hashtbl.remove g.blocks m;
            g.order <- List.filter (fun l' -> not (Label.equal l' m)) g.order;
            bump g;
            changed := true
          | Goto _ | Branch _ | Halt -> ())
      (labels g)
  done

let copy g =
  let blocks = Hashtbl.create (Hashtbl.length g.blocks) in
  Hashtbl.iter
    (fun l b ->
      force_block b;
      Hashtbl.replace blocks l { instrs = b.instrs; tail_rev = []; term = b.term })
    g.blocks;
  {
    name = g.name;
    blocks;
    order = g.order;
    next_label = g.next_label;
    entry = g.entry;
    exit_label = g.exit_label;
    (* A snapshot is immutable once built, so the copy starts at the
       source's shape version and shares its warm snapshot: a retained
       graph's copy then validates and solves without rebuilding the
       adjacency.  The copy's first shape edit bumps its own version past
       the snapshot's, so it builds a fresh one and leaves the shared
       snapshot (still the source's) untouched. *)
    version = g.version;
    adj = (match g.adj with Some a when a.adj_version = g.version -> g.adj | Some _ | None -> None);
    adj_lock = Mutex.create ();
    iversion = 0;
    cpool = None;
    cpool_lock = Mutex.create ();
  }

let build_candidate_pool g =
  let pool = Expr_pool.create () in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          match Instr.candidate i with
          | Some e -> ignore (Expr_pool.add pool e)
          | None -> ())
        (instrs g l))
    (labels g);
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
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          Option.iter note (Instr.defs i);
          List.iter note (Instr.uses i))
        (instrs g l);
      match term g l with
      | Branch (Expr.Var v, _, _) -> note v
      | Branch (Expr.Const _, _, _) | Goto _ | Halt -> ())
    (labels g);
  List.sort String.compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])

let num_instrs g = List.fold_left (fun acc l -> acc + List.length (instrs g l)) 0 (labels g)

let num_candidate_occurrences g =
  List.fold_left
    (fun acc l ->
      acc
      + List.length (List.filter (fun i -> Option.is_some (Instr.candidate i)) (instrs g l)))
    0 (labels g)

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

let rec add_instr_lines buf = function
  | [] -> ()
  | i :: rest ->
    Buffer.add_string buf "\n  ";
    Instr.add_to_buffer buf i;
    add_instr_lines buf rest

(* The graph's one printer, writing straight into a [Buffer]: a header
   line, then per block (allocation order) its label line, its
   instructions and its terminator, each indented by two spaces, with no
   trailing newline.  The text is the canonical form [digest] hashes, so
   it must stay byte-stable. *)
let to_string g =
  let labels = labels g in
  let lines = List.fold_left (fun n l -> n + 2 + List.length (instrs g l)) 1 labels in
  let buf = Buffer.create (16 * lines) in
  Buffer.add_string buf "cfg ";
  Buffer.add_string buf g.name;
  Buffer.add_string buf " (entry ";
  Label.add_to_buffer buf g.entry;
  Buffer.add_string buf ", exit ";
  Label.add_to_buffer buf g.exit_label;
  Buffer.add_char buf ')';
  List.iter
    (fun l ->
      Buffer.add_char buf '\n';
      Label.add_to_buffer buf l;
      Buffer.add_char buf ':';
      add_instr_lines buf (instrs g l);
      Buffer.add_string buf "\n  ";
      add_terminator buf (term g l))
    labels;
  Buffer.contents buf

let pp ppf g = Format.pp_print_string ppf (to_string g)

(* Content address of the printed form.  [to_string] prints blocks in
   allocation order with dense labels, so two graphs that parse to the
   same structure digest identically — the serving cache and the shard
   router both key on this. *)
let digest g = Digest.to_hex (Digest.string (to_string g))
