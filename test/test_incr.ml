(* The change-driven incremental analysis against from-scratch solves:
   chains of deltas that each restart from the previous delta's capture,
   over every kind of edit a delta can make.  The analysis runs on an
   arena that is reset after every delta, so a capture row shared with the
   arena would be overwritten by the next delta and show up as a
   mismatch. *)

module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Prng = Lcm_support.Prng
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Patch = Lcm_cfg.Patch
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Gencfg = Lcm_eval.Gencfg
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Local = Lcm_dataflow.Local
module Expr_pool = Lcm_ir.Expr_pool

let instr s = Lcm_cfg.Cfg_text.parse_instr_line s

(* A memo-free copy of [g]: re-read from its text, it shares no block
   record (and so no memoised text, rewrite or escape) with [g]. *)
let reread g = Lcm_cfg.Cfg_text.parse (Cfg.to_string g)

let escaped text =
  let buf = Buffer.create (String.length text + 2) in
  Buffer.add_char buf '"';
  Lcm_obs.Json.escape_into buf text;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* [g] transformed under [a], checked against the transform of a
   memo-free copy of [g] under a from-scratch solve, byte for byte, and
   its escaped program against escaping its text.  The transformed graph
   and its text, or what differs. *)
let transformed g (a : Lcm_edge.analysis) =
  let out, _ = Transform.apply g (Lcm_edge.spec g a) in
  let text = Cfg.to_string out in
  let g0 = reread g in
  let expected = Cfg.to_string (fst (Transform.apply g0 (Lcm_edge.spec g0 (Lcm_edge.analyze g0)))) in
  if not (String.equal text expected) then Error "transformed program"
  else if not (String.equal (Cfg.to_json out) (escaped text)) then Error "escaped program"
  else Ok (out, text)

(* The rank of each of [a]'s bits: its position in the graph's
   first-occurrence order among the live bits, -1 for a dead bit. *)
let rank_of (a : Lcm_edge.analysis) i = match a.Lcm_edge.ranked with None -> i | Some (rank, _) -> rank.(i)

(* [a]'s vector [v] against [b]'s [w], bit [i] of [v] against bit
   [rank_of a i] of [w]: equal on every live bit and, with [dead_clear],
   clear on every dead one. *)
let same_ranked ?(dead_clear = false) a v w =
  let live = ref 0 and ok = ref true in
  for i = 0 to Bitvec.length v - 1 do
    let r = rank_of a i in
    if r >= 0 then begin
      incr live;
      if r >= Bitvec.length w || Bitvec.get v i <> Bitvec.get w r then ok := false
    end
    else if dead_clear && Bitvec.get v i then ok := false
  done;
  !ok && !live = Bitvec.length w

let same_sets a xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun (k, v) (k', w) -> k = k' && same_ranked ~dead_clear:true a v w) xs ys

(* [None] when [a] (incremental, on the patched graph [g]) and [b] (from
   scratch) agree on every row and set, bit for bit once [a]'s bits are
   mapped to their ranks, with [a]'s dead bits clear in ANTLOC, COMP and
   the sets; else what differs. *)
let difference g (a : Lcm_edge.analysis) (b : Lcm_edge.analysis) =
  let row ?dead_clear what f f' =
    List.find_map
      (fun l -> if same_ranked ?dead_clear a (f l) (f' l) then None else Some (Printf.sprintf "%s at B%d" what l))
      (Cfg.labels g)
  in
  let edge what f f' =
    List.find_map
      (fun (p, s) ->
        if same_ranked a (f (p, s)) (f' (p, s)) then None else Some (Printf.sprintf "%s on B%d->B%d" what p s))
      (Cfg.edges g)
  in
  let ( >>? ) x k = match x with Some _ -> x | None -> k () in
  let local f (x : Lcm_edge.analysis) = f x.Lcm_edge.local in
  row ~dead_clear:true "ANTLOC" (local Local.antloc a) (local Local.antloc b) >>? fun () ->
  row ~dead_clear:true "COMP" (local Local.comp a) (local Local.comp b) >>? fun () ->
  row "TRANSP" (local Local.transp a) (local Local.transp b) >>? fun () ->
  row "AVIN" a.Lcm_edge.avail.Avail.avin b.Lcm_edge.avail.Avail.avin >>? fun () ->
  row "AVOUT" a.Lcm_edge.avail.Avail.avout b.Lcm_edge.avail.Avail.avout >>? fun () ->
  row "ANTIN" a.Lcm_edge.antic.Antic.antin b.Lcm_edge.antic.Antic.antin >>? fun () ->
  row "ANTOUT" a.Lcm_edge.antic.Antic.antout b.Lcm_edge.antic.Antic.antout >>? fun () ->
  edge "EARLIEST" a.Lcm_edge.earliest b.Lcm_edge.earliest >>? fun () ->
  row "LATERIN" a.Lcm_edge.laterin b.Lcm_edge.laterin >>? fun () ->
  edge "LATER" a.Lcm_edge.later b.Lcm_edge.later >>? fun () ->
  (if same_sets a a.Lcm_edge.insert b.Lcm_edge.insert then None else Some "INSERT") >>? fun () ->
  (if same_sets a a.Lcm_edge.delete b.Lcm_edge.delete then None else Some "DELETE") >>? fun () ->
  (* COPY is where the temporaries' liveness shows: its restart is right
     when the copies it decides are. *)
  if same_sets a a.Lcm_edge.copy b.Lcm_edge.copy then None else Some "COPY (temp liveness)"

(* ---- random deltas ---- *)

type kind =
  | Add_computation  (** recompute an existing candidate somewhere: GEN gained *)
  | Remove_computation  (** drop a computation that also occurs elsewhere *)
  | Kill_only  (** overwrite an operand: KEEP lost, nothing computed *)
  | Retarget  (** [Set_term] to another block *)
  | Strand_exit  (** every edge into the exit becomes a self-loop: the exit is unreachable *)
  | Restore  (** put back a terminator replaced earlier: reachable again *)
  | New_block  (** [Add_block] wired in by a [Set_term] of the same delta *)
  | Fresh_expr  (** compute an expression the pool lacks, anywhere in any block: a bit is appended *)
  | Drop_last  (** remove an expression's only occurrence: its bit dies *)
  | Readd_dead  (** compute again an expression dropped earlier: its bit lives again *)
  | Reorder  (** compute an expression before its first occurrence, past others' *)
  | Write_new_name  (** assign a variable no block mentions *)
  | Read_new_name  (** compute an expression over a variable no block mentions *)
  | Read_written_name  (** compute an expression over a variable only an earlier delta wrote *)

let kinds =
  [|
    Add_computation; Remove_computation; Kill_only; Retarget; Strand_exit; Restore; New_block; Fresh_expr; Drop_last;
    Readd_dead; Reorder; Write_new_name; Read_new_name; Read_written_name;
  |]

let kind_name = function
  | Add_computation -> "add computation"
  | Remove_computation -> "remove computation"
  | Kill_only -> "kill only"
  | Retarget -> "retarget"
  | Strand_exit -> "strand exit"
  | Restore -> "restore"
  | New_block -> "new block"
  | Fresh_expr -> "fresh expression"
  | Drop_last -> "drop last occurrence"
  | Readd_dead -> "re-add dead expression"
  | Reorder -> "reorder first occurrences"
  | Write_new_name -> "write a new name"
  | Read_new_name -> "read a new name"
  | Read_written_name -> "read a name a delta wrote"

(* What earlier deltas of a chain left for later ones to build on. *)
type history = {
  mutable replaced : (Label.t * Cfg.terminator) list list;  (** terminators replaced earlier *)
  mutable dropped : Expr.t list;  (** expressions whose only occurrence a delta removed *)
  mutable written : string list;  (** names only deltas wrote *)
  mutable fresh : int;  (** a counter for new names and constants *)
}

let candidates g =
  List.concat_map (fun l -> List.filter_map Instr.candidate (Cfg.instrs g l)) (Cfg.labels g)

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Prng.int rng (List.length xs)))

let interior g = List.filter (fun l -> l <> Cfg.entry g && l <> Cfg.exit_label g) (Cfg.labels g)
let gotos g = List.filter (fun l -> match Cfg.term g l with Cfg.Goto _ -> true | _ -> false) (Cfg.labels g)

let insert_at rng body i =
  let k = Prng.int rng (List.length body + 1) in
  List.filteri (fun j _ -> j < k) body @ (i :: List.filteri (fun j _ -> j >= k) body)

let fresh_name h stem =
  h.fresh <- h.fresh + 1;
  Printf.sprintf "%s%d" stem h.fresh

(* The first block computing [e], in label order. *)
let first_block g e =
  List.find_opt (fun l -> List.exists (fun i -> Instr.candidate i = Some e) (Cfg.instrs g l)) (Cfg.labels g)

(* One delta of the given kind on [g], or [None] when [g] offers nothing
   to edit that way.  Patch validation keeps every block but the exit
   reachable, so the exit is the block whose reachability flips. *)
let random_delta rng g h kind =
  let targets = List.filter (fun l -> l <> Cfg.entry g) (Cfg.labels g) in
  let operands () = List.concat_map (fun e -> Instr.uses (Instr.Assign ("_", e))) (candidates g) in
  let compute_in l e = [ Patch.Set_instrs (l, insert_at rng (Cfg.instrs g l) (Instr.Assign (fresh_name h "zc", e))) ] in
  match kind with
  | Add_computation ->
    Option.bind (pick rng (candidates g)) (fun e ->
        Option.map
          (fun l -> [ Patch.Set_instrs (l, Cfg.instrs g l @ [ instr ("zfresh := " ^ Expr.to_string e) ]) ])
          (pick rng (Cfg.labels g)))
  | Remove_computation ->
    let all = candidates g in
    let twice e = List.length (List.filter (Expr.equal e) all) >= 2 in
    let removable l = List.exists (fun i -> match Instr.candidate i with Some e -> twice e | None -> false) (Cfg.instrs g l) in
    Option.map
      (fun l ->
        let rec drop = function
          | [] -> []
          | i :: rest -> (match Instr.candidate i with Some e when twice e -> rest | _ -> i :: drop rest)
        in
        [ Patch.Set_instrs (l, drop (Cfg.instrs g l)) ])
      (pick rng (List.filter removable (Cfg.labels g)))
  | Kill_only ->
    Option.bind (pick rng (operands ())) (fun v ->
        Option.map
          (fun l -> [ Patch.Set_instrs (l, insert_at rng (Cfg.instrs g l) (instr (v ^ " := 7"))) ])
          (pick rng (Cfg.labels g)))
  | Retarget ->
    Option.bind (pick rng (gotos g)) (fun l ->
        Option.map (fun t -> [ Patch.Set_term (l, Cfg.Goto t) ]) (pick rng (Cfg.exit_label g :: targets)))
  | Strand_exit ->
    let exit = Cfg.exit_label g in
    let away p l = if Label.equal l exit then p else l in
    (match Cfg.predecessors g exit with
    | [] -> None
    | preds ->
      Some
        (List.map
           (fun p ->
             Patch.Set_term
               ( p,
                 match Cfg.term g p with
                 | Cfg.Goto l -> Cfg.Goto (away p l)
                 | Cfg.Branch (c, a, b) -> Cfg.Branch (c, away p a, away p b)
                 | Cfg.Halt -> Cfg.Halt ))
           preds))
  | Restore ->
    (match h.replaced with
    | terms :: rest ->
      h.replaced <- rest;
      Some (List.map (fun (l, term) -> Patch.Set_term (l, term)) terms)
    | [] -> None)
  | New_block ->
    Option.bind (pick rng (interior g)) (fun body_of ->
        Option.bind (pick rng (gotos g)) (fun from ->
            Option.map
              (fun t ->
                [
                  Patch.Add_block (Cfg.instrs g body_of, Cfg.Goto t);
                  Patch.Set_term (from, Cfg.Goto (Cfg.label_bound g));
                ])
              (pick rng targets)))
  | Fresh_expr ->
    Option.bind (pick rng (operands ())) (fun v ->
        let e = Expr.Binary (Expr.Mul, Expr.Var v, Expr.Const (1000 + h.fresh)) in
        Option.map (fun l -> compute_in l e) (pick rng (Cfg.labels g)))
  | Drop_last ->
    let all = candidates g in
    let once e = List.length (List.filter (Expr.equal e) all) = 1 in
    Option.bind (pick rng (List.filter once all)) (fun e ->
        Option.map
          (fun l ->
            h.dropped <- e :: h.dropped;
            [ Patch.Set_instrs (l, List.filter (fun i -> Instr.candidate i <> Some e) (Cfg.instrs g l)) ])
          (first_block g e))
  | Readd_dead ->
    let all = candidates g in
    Option.bind (pick rng (List.filter (fun e -> not (List.exists (Expr.equal e) all)) h.dropped)) (fun e ->
        Option.map (fun l -> compute_in l e) (pick rng (Cfg.labels g)))
  | Reorder ->
    Option.bind (pick rng (candidates g)) (fun e ->
        Option.bind (first_block g e) (fun b ->
            Option.map (fun l -> compute_in l e) (pick rng (List.filter (fun l -> l < b) (Cfg.labels g)))))
  | Write_new_name ->
    Option.map
      (fun l ->
        let v = fresh_name h "zw" in
        h.written <- v :: h.written;
        [ Patch.Set_instrs (l, insert_at rng (Cfg.instrs g l) (instr (v ^ " := 5"))) ])
      (pick rng (Cfg.labels g))
  | Read_new_name ->
    let e = Expr.Binary (Expr.Add, Expr.Var (fresh_name h "zn"), Expr.Const 3) in
    Option.map (fun l -> compute_in l e) (pick rng (Cfg.labels g))
  | Read_written_name ->
    Option.bind (pick rng h.written) (fun v ->
        let e = Expr.Binary (Expr.Mul, Expr.Var v, Expr.Const (2000 + h.fresh)) in
        Option.map (fun l -> compute_in l e) (pick rng (Cfg.labels g)))

(* Whether every block of [g] reaches its exit. *)
let all_reach_exit g =
  let seen = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      List.iter visit (Cfg.predecessors g l)
    end
  in
  visit (Cfg.exit_label g);
  Hashtbl.length seen = Cfg.num_blocks g

(* The names a capture's numbering holds: those of the graph it was last
   solved from scratch on (a restart keeps the numbering's table). *)
let numbered g =
  let nb = Cfg.numbering g in
  fun v -> Cfg.numbering_var nb v >= 0

(* Whether a restart may refuse the patch from [g] to [g'] ([edits])
   whose capture numbers [pool] and the names [known]: only when the
   patch adds a candidate that reads a name [known] lacks, or adds one and
   also edits the shape, outgrows the rows' width in words, or meets a
   block that cannot reach the exit. *)
let may_refuse ~known pool g g' edits =
  let added =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if Option.is_none (Expr_pool.index pool e) then Some (Expr.canonical e) else None)
         (candidates g'))
  in
  added <> []
  && (List.exists (fun e -> List.exists (fun v -> not (known v)) (Instr.uses (Instr.Assign ("_", e)))) added
     || List.exists (function Patch.Set_term _ | Patch.Add_block _ -> true | Patch.Set_instrs _ -> false) edits
     || Bitvec.words_for (Expr_pool.size pool + List.length added) > Bitvec.words_for (Expr_pool.size pool)
     || not (all_reach_exit g))

(* ---- the chain ---- *)

let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt

(* Runs [rounds] deltas from one capture to the next.  Round 3 is a patch
   that fails ([Patch.Error]) and round 5 a delta whose solve is thrown
   away, as when a request fails after its solve: either way the handle
   keeps its capture, which must still restart exactly — checked with an
   empty delta on the unchanged graph.  Every round transforms its graph,
   whose unchanged blocks are the previous rounds' records, so their
   rewrites come from the memo; each round's transformed graph is kept and
   must still print the same bytes at the end of the chain. *)
(* Deltas that changed the candidate pool (added or dropped an
   expression) and still restarted incrementally, over every chain run. *)
let pool_restarts = ref 0

let chain ~seed ~rounds g0 =
  let rng = Prng.of_int seed in
  let arena = Arena.create () in
  let h = { replaced = []; dropped = []; written = []; fresh = 0 } in
  let outputs = ref [] in
  let keep_output what g a =
    match transformed g a with
    | Ok out -> outputs := out :: !outputs
    | Error d -> ignore (fail "%s: %s differs from scratch" what d)
  in
  let check_outputs () =
    List.iter
      (fun (out, text) ->
        if not (String.equal (Cfg.to_string out) text) then ignore (fail "a kept transformed graph changed"))
      !outputs
  in
  let check_capture g saved what =
    let a =
      match Lcm_edge.analyze_incr ~scratch:arena g ~prev:saved ~dirty:[] with
      | Some (a, _, region) -> if region <> 0 then fail "%s: empty delta changed %d rows" what region else a
      | None -> fail "%s: capture refused on its own graph" what
    in
    let full, _ = Lcm_edge.analyze_keep (Cfg.copy g) in
    let d = difference g a full in
    keep_output what g a;
    Arena.reset arena;
    match d with Some d -> fail "%s: capture differs from scratch (%s)" what d | None -> ()
  in
  let rec go round g saved known =
    if round >= rounds then begin
      check_capture g saved "end of chain";
      check_outputs ();
      true
    end
    else if round = 3 then begin
      (* A patch that fails validation: a non-exit block halting. *)
      let target = match interior g with l :: _ -> l | [] -> Cfg.entry g in
      (match Patch.apply (Cfg.copy g) [ Patch.Set_term (target, Cfg.Halt) ] with
      | exception Patch.Error _ -> ()
      | _ -> ignore (fail "halting interior block accepted"));
      check_capture g saved "after a failed patch";
      go (round + 1) g saved known
    end
    else begin
      let kind = kinds.(Prng.int rng (Array.length kinds)) in
      (* A few tries: a random retarget often strands a block, which
         patch validation refuses. *)
      let rec attempt tries =
        if tries = 0 then None
        else
          match random_delta rng g h kind with
          | None -> None
          | Some edits ->
            let g' = Cfg.copy g in
            (match Patch.apply g' edits with
            | exception Patch.Error _ -> attempt (tries - 1)
            | dirty ->
              let old_terms =
                List.filter_map
                  (function Patch.Set_term (l, _) when Cfg.mem g l -> Some (l, Cfg.term g l) | _ -> None)
                  edits
              in
              if kind <> Restore && old_terms <> [] then h.replaced <- old_terms :: h.replaced;
              Some (g', edits, dirty))
      in
      match attempt 4 with
      | None -> go (round + 1) g saved known
      | Some (g', edits, dirty) ->
        let pool = Lcm_edge.saved_pool saved in
        let a, saved', known' =
          match Lcm_edge.analyze_incr ~scratch:arena g' ~prev:saved ~dirty with
          | Some (a, saved', region) ->
            if region > Cfg.label_bound g' then fail "%s: %d changed rows" (kind_name kind) region;
            if Option.is_some a.Lcm_edge.ranked || Expr_pool.size (Lcm_edge.saved_pool saved') <> Expr_pool.size pool
            then incr pool_restarts;
            (a, saved', known)
          | None ->
            if not (may_refuse ~known pool g g' edits) then fail "%s: full path on an admissible patch" (kind_name kind);
            let a, saved' = Lcm_edge.analyze_keep ~scratch:arena g' in
            (a, saved', numbered g')
        in
        let full, _ = Lcm_edge.analyze_keep (Cfg.copy g') in
        (match difference g' a full with
        | Some d -> ignore (fail "round %d (%s): %s differs from scratch" round (kind_name kind) d)
        | None -> ());
        keep_output (Printf.sprintf "round %d (%s)" round (kind_name kind)) g' a;
        Arena.reset arena;
        if round = 5 then begin
          check_capture g saved "after a discarded solve";
          go (round + 1) g saved known
        end
        else go (round + 1) g' saved' known'
    end
  in
  let _, saved = Lcm_edge.analyze_keep g0 in
  go 0 g0 saved (numbered g0)

let prop_chain =
  QCheck2.Test.make ~name:"analyze_incr chains ≡ analyze_keep (random CFGs, every edit kind)" ~count:60
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 4242) in
      let num_blocks = Prng.int_in rng 4 30 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      chain ~seed ~rounds:16 g)

(* Every Bril corpus function, one chain each: real programs, with more
   candidates than the random graphs. *)
let test_chain_bril () =
  let before = !pool_restarts in
  List.iteri
    (fun i (name, g) -> Alcotest.(check bool) name true (chain ~seed:(97 * i) ~rounds:14 g))
    (Test_solver.bril_corpus ());
  if !pool_restarts - before < 10 then
    Alcotest.failf "only %d pool-changing deltas restarted incrementally" (!pool_restarts - before)

(* B3 deletes [a + b] (B2 computed it) and, after killing [a], copies its
   recomputation into the temporary for B4.  Once B4 no longer uses it,
   B3's COPY set empties while its DELETE set stays: the rewrite memoised
   on B3's record must miss, or the transformed program keeps the copy. *)
let test_memo_keyed_by_copies () =
  let g =
    Lcm_cfg.Cfg_text.parse
      "cfg memo (entry B0, exit B1)\nB0:\n  goto B2\nB1:\n  halt\nB2:\n  z := a + b\n  goto B3\nB3:\n  x := a + b\n  a := 1\n  w := a + b\n  goto B4\nB4:\n  v := a + b\n  print v\n  goto B1"
  in
  let a, saved = Lcm_edge.analyze_keep g in
  let check what g a =
    match transformed g a with Ok _ -> () | Error d -> Alcotest.failf "%s: %s differs from scratch" what d
  in
  check "before" g a;
  let g' = Cfg.copy g in
  let dirty = Patch.apply g' [ Patch.Set_instrs (4, [ instr "print a" ]) ] in
  let a' =
    match Lcm_edge.analyze_incr g' ~prev:saved ~dirty with
    | Some (a', _, _) -> a'
    | None -> Alcotest.fail "the restart refused the capture"
  in
  let set sets = Option.map Bitvec.to_list (List.assoc_opt 3 sets) in
  Alcotest.(check (option (list int))) "B3 still deletes" (set a.Lcm_edge.delete) (set a'.Lcm_edge.delete);
  Alcotest.(check (option (list int))) "B3 no longer copies" None (set a'.Lcm_edge.copy);
  check "after" g' a'

(* On a 1,000-block graph a delta that recomputes one candidate in one
   block moves a few rows, so the restarted LATERIN and liveness visit a
   small fraction of what a from-scratch solve visits. *)
let test_restart_visits () =
  let g =
    reread (Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks = 1000 } (Prng.of_int 1000))
  in
  let _, saved = Lcm_edge.analyze_keep g in
  let computing =
    List.filter_map
      (fun l -> Option.map (fun e -> (l, e)) (List.find_map Instr.candidate (Cfg.instrs g l)))
      (interior g)
  in
  List.iteri
    (fun i (l, e) ->
      if i mod 40 = 0 then begin
        let g' = Cfg.copy g in
        let dirty = Patch.apply g' [ Patch.Set_instrs (l, Cfg.instrs g l @ [ Instr.Assign ("zdelta", e) ]) ] in
        let a =
          match Lcm_edge.analyze_incr g' ~prev:saved ~dirty with
          | Some (a, _, _) -> a
          | None -> Alcotest.failf "B%d: the restart refused the capture" l
        in
        let full = Lcm_edge.analyze (reread g') in
        Alcotest.(check (option string)) (Printf.sprintf "B%d: same analysis" l) None (difference g' a full);
        let incr = a.Lcm_edge.delay_visits + a.Lcm_edge.live_visits
        and scratch = full.Lcm_edge.delay_visits + full.Lcm_edge.live_visits in
        if 10 * incr > scratch then
          Alcotest.failf "B%d: the restart visited %d LATERIN and liveness rows, a full solve %d" l incr scratch
      end)
    computing

(* A delta's analysis costs what it changes, not what the graph holds:
   a single-block body delta on a warm arena allocates (GC-fenced) no
   more at 4,000 blocks than 1.5x what it allocates at 1,000.  The delta
   recomputes a candidate its block already computes downwards exposed,
   so no predicate row moves and every word it allocates is bookkeeping
   (the occurrence index's pages, the lists, the capture's records): a
   table copied whole, or one pointer per block, would grow with the
   graph. *)
let test_delta_alloc_o_change () =
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let words blocks =
    let g = reread (Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks = blocks } (Prng.of_int blocks)) in
    let a, saved = Lcm_edge.analyze_keep g in
    let l, e =
      List.find_map
        (fun l ->
          let comp = Local.comp a.Lcm_edge.local l in
          List.find_map
            (fun i ->
              match Instr.candidate i with
              | Some e when Bitvec.get comp (Expr_pool.index_exn a.Lcm_edge.pool e) -> Some (l, e)
              | Some _ | None -> None)
            (Cfg.instrs g l))
        (interior g)
      |> Option.get
    in
    let g' = Cfg.copy g in
    let dirty = Patch.apply g' [ Patch.Set_instrs (l, Cfg.instrs g l @ [ Instr.Assign ("zdelta", e) ]) ] in
    let arena = Arena.create () in
    let run () =
      (match Lcm_edge.analyze_incr ~scratch:arena g' ~prev:saved ~dirty with
      | Some (_, _, region) -> if region <> 0 then Alcotest.failf "%d blocks: the delta moved %d rows" blocks region
      | None -> Alcotest.failf "%d blocks: the restart refused the capture" blocks);
      Arena.reset arena
    in
    for _ = 1 to 5 do
      run ()
    done;
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to 20 do
      run ()
    done;
    Gc.minor ();
    (Gc.allocated_bytes () -. a0) /. 20. /. word_bytes
  in
  let w1 = words 1000 and w4 = words 4000 in
  if w4 > 1.5 *. w1 then
    Alcotest.failf "a single-block delta allocates %.0f words at 4,000 blocks, %.0f at 1,000" w4 w1

let suite =
  [
    QCheck_alcotest.to_alcotest prop_chain;
    Alcotest.test_case "analyze_incr chains ≡ analyze_keep (Bril corpus)" `Quick test_chain_bril;
    Alcotest.test_case "single-block delta at 1,000 blocks: LATERIN and liveness visits ≤ 10% of a full solve"
      `Quick test_restart_visits;
    Alcotest.test_case "a rewrite memo misses when only the block's COPY set changed" `Quick test_memo_keyed_by_copies;
    Alcotest.test_case "a single-block delta allocates no more at 4,000 blocks than 1.5x at 1,000" `Quick
      test_delta_alloc_o_change;
  ]
