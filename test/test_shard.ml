(* Sharded-serving building blocks: the consistent-hash ring, the router's
   LRU result cache, the per-worker handle table, graph patching, and the
   incremental re-solve's equivalence with the from-scratch solve.

   The process-level pieces (router forking workers, crash transparency)
   live in test/shard/ — Router.serve forks, which OCaml 5 forbids after a
   domain spawn, so they cannot share this runner with the pool suites. *)

module Chash = Lcm_support.Chash
module Prng = Lcm_support.Prng
module Cache = Lcm_shard.Cache
module Handles = Lcm_server.Handles
module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Patch = Lcm_cfg.Patch
module Gencfg = Lcm_eval.Gencfg
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- consistent hashing ---- *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let chash_deterministic () =
  let r1 = Chash.create ~nodes:4 ~replicas:32 in
  let r2 = Chash.create ~nodes:4 ~replicas:32 in
  List.iter
    (fun k -> checki ("owner of " ^ k) (Chash.lookup r1 k) (Chash.lookup r2 k))
    (keys 200)

let chash_in_range () =
  let r = Chash.create ~nodes:3 ~replicas:16 in
  List.iter
    (fun k ->
      let n = Chash.lookup r k in
      checkb "owner in range" true (n >= 0 && n < 3))
    (keys 500)

let chash_covers_all_nodes () =
  (* With enough virtual nodes, every worker owns a nonempty arc. *)
  let nodes = 4 in
  let r = Chash.create ~nodes ~replicas:32 in
  let seen = Array.make nodes false in
  List.iter (fun k -> seen.(Chash.lookup r k) <- true) (keys 2000);
  Array.iteri (fun i s -> checkb (Printf.sprintf "node %d owns keys" i) true s) seen

let chash_stability_under_death () =
  (* When node d dies, keys it did not own keep their owner; keys it did
     own move to a live node — the membership change is local. *)
  let nodes = 4 in
  let r = Chash.create ~nodes ~replicas:32 in
  let d = 2 in
  let alive n = n <> d in
  List.iter
    (fun k ->
      let before = Chash.lookup r k in
      match Chash.lookup_alive r ~alive k with
      | None -> Alcotest.fail "no live owner with 3/4 nodes up"
      | Some after ->
        checkb "live owner" true (alive after);
        if before <> d then checki ("stable owner of " ^ k) before after)
    (keys 500)

let chash_lookup_alive_none () =
  let r = Chash.create ~nodes:2 ~replicas:8 in
  checkb "no live node -> None" true (Chash.lookup_alive r ~alive:(fun _ -> false) "k" = None)

let chash_successor () =
  let r = Chash.create ~nodes:3 ~replicas:16 in
  (match Chash.successor r ~alive:(fun _ -> true) 1 with
  | Some s -> checkb "successor is a different node" true (s <> 1 && s >= 0 && s < 3)
  | None -> Alcotest.fail "successor exists among 3 live nodes");
  checkb "no successor when alone" true
    (Chash.successor r ~alive:(fun n -> n = 1) 1 = None)

(* ---- LRU cache ---- *)

let cache_basic () =
  let c = Cache.create ~capacity:2 in
  checki "evictions" 0 (Cache.add c "a" 1);
  checki "evictions" 0 (Cache.add c "b" 2);
  checkb "a present" true (Cache.find c "a" = Some 1);
  (* "a" was just refreshed, so adding "c" must evict "b". *)
  checki "evicts one" 1 (Cache.add c "c" 3);
  checkb "b evicted" true (Cache.find c "b" = None);
  checkb "a survives (recency)" true (Cache.find c "a" = Some 1);
  checkb "c present" true (Cache.find c "c" = Some 3);
  checki "size" 2 (Cache.size c)

let cache_replace_refreshes () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.add c "a" 1);
  ignore (Cache.add c "b" 2);
  checki "replace does not evict" 0 (Cache.add c "a" 10);
  check Alcotest.(list string) "a is newest" [ "b"; "a" ] (Cache.keys c);
  checkb "replaced value" true (Cache.find c "a" = Some 10)

let cache_disabled () =
  let c = Cache.create ~capacity:0 in
  checki "add is a no-op" 0 (Cache.add c "a" 1);
  checkb "nothing stored" true (Cache.find c "a" = None);
  checki "size" 0 (Cache.size c)

let cache_eviction_order () =
  let c = Cache.create ~capacity:3 in
  List.iter (fun k -> ignore (Cache.add c k 0)) [ "a"; "b"; "c" ];
  ignore (Cache.find c "a");
  ignore (Cache.add c "d" 0);
  (* b was the least recently used *)
  check Alcotest.(list string) "order" [ "c"; "a"; "d" ] (Cache.keys c)

let cache_remove () =
  (* The integrity guard's eject path: removal from the middle, the
     ends, and of an absent key must all leave a consistent LRU. *)
  let c = Cache.create ~capacity:4 in
  List.iter (fun k -> ignore (Cache.add c k 0)) [ "a"; "b"; "c"; "d" ];
  Cache.remove c "b";
  checkb "gone" true (Cache.find c "b" = None);
  checki "size" 3 (Cache.size c);
  Cache.remove c "nope";
  checki "absent key is a no-op" 3 (Cache.size c);
  Cache.remove c "a";
  Cache.remove c "d";
  check Alcotest.(list string) "survivor" [ "c" ] (Cache.keys c);
  (* Freed capacity is reusable without a spurious eviction. *)
  checki "no eviction after removes" 0 (Cache.add c "e" 1);
  checkb "reinsert after remove" true (Cache.find c "e" = Some 1)

(* ---- handle table ---- *)

let retained_entry () =
  let g = Cfg_text.parse "cfg h (entry B0, exit B1)\nB0:\n  x := a + b\n  goto B1\nB1:\n  halt\n" in
  let _, saved = Lcm_edge.analyze_keep g in
  { Handles.algorithm = "lcm-edge"; simplify = false; state = (g, saved) }

let handles_mint_and_find () =
  let t = Handles.create ~worker:3 ~capacity:4 in
  let h1, `Evicted e1 = Handles.register t (retained_entry ()) in
  let h2, `Evicted e2 = Handles.register t (retained_entry ()) in
  checki "no eviction below capacity" 0 (List.length e1 + List.length e2);
  checkb "distinct handles" true (h1 <> h2);
  checkb "handle names carry the worker" true (Handles.worker_of_handle h1 = Some 3);
  checkb "registered handle resolves" true (Handles.find t h1 <> None);
  checkb "unknown handle misses" true (Handles.find t "h3-999" = None);
  checki "size" 2 (Handles.size t)

let handles_fifo_eviction () =
  let t = Handles.create ~worker:0 ~capacity:2 in
  let h1, _ = Handles.register t (retained_entry ()) in
  let h2, _ = Handles.register t (retained_entry ()) in
  let h3, `Evicted e = Handles.register t (retained_entry ()) in
  check Alcotest.(list string) "the oldest handle is named evicted" [ h1 ] e;
  checkb "oldest evicted" true (Handles.find t h1 = None);
  checkb "newer survive" true (Handles.find t h2 <> None && Handles.find t h3 <> None);
  checki "bounded" 2 (Handles.size t)

let handles_restore () =
  let t = Handles.create ~worker:0 ~capacity:4 in
  let `Evicted _ = Handles.restore t "h0-7" (retained_entry ()) in
  checkb "restored handle resolves" true (Handles.find t "h0-7" <> None);
  (* Minting resumes past the highest restored sequence. *)
  let h, _ = Handles.register t (retained_entry ()) in
  check Alcotest.string "next mint after restore" "h0-8" h;
  checkb "restoring a live handle is a bug" true
    (match Handles.restore t "h0-7" (retained_entry ()) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "restoring a malformed name is a bug" true
    (match Handles.restore t "nope" (retained_entry ()) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "seq parsing" true (Handles.seq_of_handle "h3-41" = Some 41)

let handles_worker_parse () =
  checkb "h12-34" true (Handles.worker_of_handle "h12-34" = Some 12);
  checkb "not a handle" true (Handles.worker_of_handle "nope" = None);
  checkb "missing seq" true (Handles.worker_of_handle "h1" = None)

(* ---- graph patching ---- *)

let diamond () =
  Cfg_text.parse
    "cfg d (entry B0, exit B1)\n\
     B0:\n\
    \  if a then B2 else B3\n\
     B1:\n\
    \  halt\n\
     B2:\n\
    \  x := a + b\n\
    \  goto B4\n\
     B3:\n\
    \  goto B4\n\
     B4:\n\
    \  y := a + b\n\
    \  goto B1\n"

let patch_set_instrs_dirty () =
  let g = diamond () in
  let dirty = Patch.apply g [ Patch.Set_instrs (2, [ Cfg_text.parse_instr_line "x := a - b" ]) ] in
  check Alcotest.(list int) "dirty = edited block" [ 2 ] dirty;
  checki "body replaced" 1 (List.length (Cfg.instrs g 2))

let patch_set_term_dirty () =
  let g = diamond () in
  let dirty = Patch.apply g [ Patch.Set_term (3, Cfg.Goto 1) ] in
  (* the edited block, its old successor and its new successor all have
     changed meet inputs *)
  List.iter (fun l -> checkb (Printf.sprintf "label %d dirty" l) true (List.mem l dirty)) [ 1; 3; 4 ]

let patch_add_block () =
  let g = diamond () in
  let fresh = Cfg.label_bound g in
  let dirty =
    Patch.apply g
      [
        Patch.Add_block ([ Cfg_text.parse_instr_line "z := a + b" ], Cfg.Goto 4);
        Patch.Set_term (3, Cfg.Goto fresh);
      ]
  in
  checkb "fresh label exists" true (Cfg.mem g fresh);
  checkb "fresh label dirty" true (List.mem fresh dirty);
  checkb "rewired" true (Cfg.successors g 3 = [ fresh ])

let patch_rejects_unknown_target () =
  let g = diamond () in
  match Patch.apply g [ Patch.Set_term (3, Cfg.Goto 99) ] with
  | exception Patch.Error _ -> ()
  | _ -> Alcotest.fail "terminator to an unknown block must be rejected"

let patch_rejects_stray_halt () =
  let g = diamond () in
  match Patch.apply g [ Patch.Set_term (3, Cfg.Halt) ] with
  | exception Patch.Error _ -> ()
  | _ -> Alcotest.fail "halt outside the exit must be rejected"

(* ---- incremental re-solve == from-scratch solve ---- *)

let program_of g = Cfg.to_string (fst (Transform.apply g (Lcm_edge.spec g (Lcm_edge.analyze g))))

(* A pool-preserving random patch: re-compute an existing candidate's rhs
   into a fresh variable somewhere, or rewire a Goto between existing
   blocks.  Both leave the expression universe unchanged, so the capture
   stays admissible and analyze_incr must take the incremental path. *)
let random_admissible_patch rng g =
  let labels = Array.of_list (Cfg.labels g) in
  let pick () = labels.(Prng.int_in rng 0 (Array.length labels - 1)) in
  let candidate_instr =
    List.find_map
      (fun l ->
        List.find_map
          (fun i -> Option.map (fun _ -> i) (Lcm_ir.Instr.candidate i))
          (Cfg.instrs g l))
      (Cfg.labels g)
  in
  match candidate_instr with
  | Some instr when Prng.chance rng ~num:2 ~den:3 ->
    let l = pick () in
    let rhs =
      match String.index_opt (Lcm_ir.Instr.to_string instr) '=' with
      | Some i ->
        let s = Lcm_ir.Instr.to_string instr in
        String.trim (String.sub s (i + 1) (String.length s - i - 1))
      | None -> assert false
    in
    Some [ Patch.Set_instrs (l, Cfg.instrs g l @ [ Cfg_text.parse_instr_line ("zfresh := " ^ rhs) ]) ]
  | _ ->
    (* rewire: point some Goto block at another existing block *)
    let gotos =
      List.filter (fun l -> match Cfg.term g l with Cfg.Goto _ -> true | _ -> false) (Cfg.labels g)
    in
    (match gotos with
    | [] -> None
    | _ ->
      let src = List.nth gotos (Prng.int_in rng 0 (List.length gotos - 1)) in
      let dst = pick () in
      if dst = Cfg.entry g then None else Some [ Patch.Set_term (src, Cfg.Goto dst) ])

let incr_equals_full =
  QCheck2.Test.make ~name:"incremental re-solve is bit-identical to from-scratch" ~count:120
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int seed in
      let num_blocks = 4 + Prng.int_in rng 0 16 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      let _, saved = Lcm_edge.analyze_keep g in
      match random_admissible_patch rng g with
      | None -> true  (* nothing to patch on this graph shape *)
      | Some edits ->
        let patched = Cfg.copy g in
        (match Patch.apply patched edits with
        | exception Patch.Error _ -> true  (* rewire happened to break validity; vacuous *)
        | dirty ->
          (match Lcm_edge.analyze_incr patched ~prev:saved ~dirty with
          | None ->
            QCheck2.Test.fail_reportf "pool-preserving patch fell back to the full solve"
          | Some (a, _, region) ->
            let incr_prog =
              Cfg.to_string (fst (Transform.apply patched (Lcm_edge.spec patched a)))
            in
            let full_prog = program_of (Cfg.copy patched) in
            if incr_prog <> full_prog then
              QCheck2.Test.fail_reportf "programs diverge (seed %d)" seed
            else if region > Cfg.num_blocks patched then
              QCheck2.Test.fail_reportf "affected region larger than the graph"
            else true)))

let incr_capture_reusable () =
  (* The capture returned by analyze_incr supports a second round of
     edits — the delta stream a retained handle serves. *)
  let rng = Prng.of_int 7 in
  let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks = 12 } rng in
  let _, s0 = Lcm_edge.analyze_keep g in
  let apply_round saved =
    match random_admissible_patch rng g with
    | Some edits ->
      let dirty = Patch.apply g edits in
      (match Lcm_edge.analyze_incr g ~prev:saved ~dirty with
      | Some (a, s, _) ->
        let p = Cfg.to_string (fst (Transform.apply (Cfg.copy g) (Lcm_edge.spec g a))) in
        let q = program_of (Cfg.copy g) in
        check Alcotest.string "round bit-identical" q p;
        s
      | None -> Alcotest.fail "admissible patch fell back")
    | None -> saved
  in
  ignore (apply_round (apply_round (apply_round s0)))

(* A new expression over the graph's own names ([a * b]) appends a bit to
   the capture's pool and restarts incrementally, with the bytes of a
   from-scratch solve.  One over names the graph never mentions ([c * d]),
   one that outgrows the rows' width in words (the diamond with one
   word's worth of expressions), or one that comes to a graph where a
   block cannot reach the exit falls back to the full solve. *)
let new_expression_restarts () =
  let g0 = diamond () in
  let _, saved = Lcm_edge.analyze_keep g0 in
  let edit g line = Patch.apply g [ Patch.Set_instrs (2, [ Cfg_text.parse_instr_line line ]) ] in
  let g = Cfg.copy g0 in
  let dirty = edit g "x := a * b" in
  (match Lcm_edge.analyze_incr g ~prev:saved ~dirty with
  | None -> Alcotest.fail "a new expression fell back to the full solve"
  | Some (a, _, _) ->
    check Alcotest.string "bytes of a from-scratch solve"
      (program_of (Cfg_text.parse (Cfg.to_string g)))
      (Cfg.to_string (fst (Transform.apply g (Lcm_edge.spec g a)))));
  let g = Cfg.copy g0 in
  let dirty = edit g "x := c * d" in
  checkb "a new expression over unknown names falls back" true (Lcm_edge.analyze_incr g ~prev:saved ~dirty = None);
  let word = Lcm_support.Bitvec.bits_per_word in
  let wide = Cfg.copy g0 in
  ignore
    (Patch.apply wide
       [ Patch.Set_instrs (3, List.init (word - 1) (fun i -> Cfg_text.parse_instr_line (Printf.sprintf "t%d := a * %d" i (i + 1)))) ]);
  let wide = Cfg_text.parse (Cfg.to_string wide) in
  let _, saved = Lcm_edge.analyze_keep wide in
  checki "one word of expressions" word (Lcm_ir.Expr_pool.size (Lcm_edge.saved_pool saved));
  let g = Cfg.copy wide in
  let dirty = edit g "x := a - b" in
  checkb "a pool outgrowing its row width falls back" true (Lcm_edge.analyze_incr g ~prev:saved ~dirty = None);
  (* B3 loops forever: it anticipates an expression it never computes,
     so the appended zero column is not the old fixpoint there. *)
  let looping = Cfg.copy g0 in
  ignore (Patch.apply looping [ Patch.Set_term (3, Cfg.Goto 3) ]);
  let _, saved = Lcm_edge.analyze_keep looping in
  let g = Cfg.copy looping in
  let dirty = edit g "x := a * b" in
  checkb "a block that cannot reach the exit falls back" true (Lcm_edge.analyze_incr g ~prev:saved ~dirty = None)

(* ---- worker respawn backoff ---- *)

(* The k-th consecutive quick death of a worker waits 50 ms, doubling to a
   1 s cap. *)
let respawn_backoff_schedule () =
  check
    Alcotest.(list (float 0.))
    "streaks 1..8"
    [ 50.; 100.; 200.; 400.; 800.; 1000.; 1000.; 1000. ]
    (List.init 8 (fun k ->
         Lcm_server.Retry.backoff_ms Lcm_shard.Router.respawn_backoff ~attempt:k))

let suite =
  [
    Alcotest.test_case "chash: deterministic across ring builds" `Quick chash_deterministic;
    Alcotest.test_case "chash: owners within node range" `Quick chash_in_range;
    Alcotest.test_case "chash: every node owns keys" `Quick chash_covers_all_nodes;
    Alcotest.test_case "chash: death moves only the dead node's keys" `Quick
      chash_stability_under_death;
    Alcotest.test_case "chash: all dead -> None" `Quick chash_lookup_alive_none;
    Alcotest.test_case "chash: successor is a distinct live node" `Quick chash_successor;
    Alcotest.test_case "cache: LRU eviction and recency" `Quick cache_basic;
    Alcotest.test_case "cache: replace refreshes without evicting" `Quick cache_replace_refreshes;
    Alcotest.test_case "cache: capacity 0 disables" `Quick cache_disabled;
    Alcotest.test_case "cache: eviction follows recency order" `Quick cache_eviction_order;
    Alcotest.test_case "cache: remove keeps the LRU consistent" `Quick cache_remove;
    Alcotest.test_case "handles: restore rebuilds under the original id" `Quick handles_restore;
    Alcotest.test_case "handles: mint, resolve, worker encoding" `Quick handles_mint_and_find;
    Alcotest.test_case "handles: FIFO eviction at capacity" `Quick handles_fifo_eviction;
    Alcotest.test_case "handles: name parsing" `Quick handles_worker_parse;
    Alcotest.test_case "patch: set_instrs dirties the block" `Quick patch_set_instrs_dirty;
    Alcotest.test_case "patch: set_term dirties both edge ends" `Quick patch_set_term_dirty;
    Alcotest.test_case "patch: add_block + rewire in order" `Quick patch_add_block;
    Alcotest.test_case "patch: unknown target rejected" `Quick patch_rejects_unknown_target;
    Alcotest.test_case "patch: stray halt rejected" `Quick patch_rejects_stray_halt;
    QCheck_alcotest.to_alcotest incr_equals_full;
    Alcotest.test_case "incremental: capture survives a delta stream" `Quick incr_capture_reusable;
    Alcotest.test_case "incremental: a new expression restarts; unknown names or a row-width crossing fall back" `Quick
      new_expression_restarts;
    Alcotest.test_case "router: respawn backoff 50 ms doubling to a 1 s cap" `Quick
      respawn_backoff_schedule;
  ]
