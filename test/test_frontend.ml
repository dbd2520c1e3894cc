(* The frontend registry and the Bril codec: name/extension resolution,
   function selection, typed parse errors with JSON paths, the vendored
   Bril corpus through every safe algorithm (placement check + interpreter
   equivalence), round-trip stability of parse ∘ print, and the serving
   path (`format` field, unsupported_format, retain + delta on a
   Bril-sourced graph). *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Frontend = Lcm_frontend.Frontend
module Bril = Lcm_frontend.Bril
module Registry = Lcm_eval.Registry
module Oracle = Lcm_eval.Oracle
module Gencfg = Lcm_eval.Gencfg
module Metrics = Lcm_eval.Metrics
module Prng = Lcm_support.Prng
module Lcse = Lcm_opt.Lcse
module Lcm_edge = Lcm_core.Lcm_edge
module Placement_check = Lcm_core.Placement_check
module Json = Lcm_server.Json
module Stats = Lcm_server.Stats
module Protocol = Lcm_server.Protocol
module Engine = Lcm_server.Engine

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The vendored corpus rides along as a dune dep (bril/*.json). *)
let corpus_dir = "bril"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

(* Naive substring search; keeps the test free of the str library. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let parse_bril what text =
  match Bril.parse_program text with
  | funcs -> funcs
  | exception Bril.Err (m, path) -> Alcotest.failf "%s: parse failed at %s: %s" what path m

(* ---- registry ---- *)

let test_registry () =
  Alcotest.(check (list string)) "names" [ "miniimp"; "cfg"; "bril" ] Frontend.names;
  Alcotest.(check string) "default" "miniimp" Frontend.default.Frontend.name;
  (match Frontend.find "bril" with
  | Some fe ->
    Alcotest.(check bool) "bril is multi-function" true fe.Frontend.multi;
    Alcotest.(check bool) "bril routes canonical" true fe.Frontend.route_canonical
  | None -> Alcotest.fail "bril not registered");
  Alcotest.(check bool) "unknown name" true (Frontend.find "llvm" = None);
  let ext path = Option.map (fun fe -> fe.Frontend.name) (Frontend.of_extension path) in
  Alcotest.(check (option string)) ".json" (Some "bril") (ext "prog.json");
  Alcotest.(check (option string)) ".bril" (Some "bril") (ext "prog.bril");
  Alcotest.(check (option string)) ".imp" (Some "miniimp") (ext "prog.imp");
  Alcotest.(check (option string)) ".cfg" (Some "cfg") (ext "prog.cfg");
  Alcotest.(check (option string)) "unknown suffix" None (ext "prog.ll")

let test_function_selection () =
  let fe = Option.get (Frontend.find "bril") in
  let text = read_file (Filename.concat corpus_dir "multi_func.json") in
  (match Frontend.parse_one fe text with
  | Error (Frontend.Pick m) ->
    Alcotest.(check bool) "pick message lists the functions" true
      (contains m "first" && contains m "second")
  | Ok _ -> Alcotest.fail "two functions and no selection must not parse"
  | Error (Frontend.Parse e) -> Alcotest.failf "unexpected parse error: %s" e.Frontend.message);
  (match Frontend.parse_one fe ~func:"second" text with
  | Ok g -> Alcotest.(check string) "picked function" "second" (Cfg.name g)
  | Error _ -> Alcotest.fail "selection by name failed");
  (match Frontend.parse_one fe ~func:"zzz" text with
  | Error (Frontend.Pick _) -> ()
  | _ -> Alcotest.fail "unknown function name must be a pick error");
  (* Single-graph formats ignore the field, as the engine always has. *)
  let cfg_fe = Option.get (Frontend.find "cfg") in
  let some_graph =
    match Frontend.parse_one fe ~func:"first" text with
    | Ok g -> g
    | Error _ -> Alcotest.fail "picking \"first\" failed"
  in
  match Frontend.parse_one cfg_fe ~func:"anything" (Cfg.to_string some_graph) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "cfg must ignore the function field"

(* ---- typed parse errors with JSON paths ---- *)

let test_parse_errors () =
  let expect_err what text path_fragment msg_fragment =
    match Bril.parse_program text with
    | _ -> Alcotest.failf "%s: expected a parse error" what
    | exception Bril.Err (m, path) ->
      if not (contains path path_fragment) then
        Alcotest.failf "%s: path %S lacks %S" what path path_fragment;
      if not (contains m msg_fragment) then Alcotest.failf "%s: message %S lacks %S" what m msg_fragment
  in
  expect_err "malformed" "{ not json" "$" "malformed JSON";
  expect_err "truncated" "{\"functions\":[{\"name\":\"f\",\"instrs\":[" "$" "malformed JSON";
  expect_err "no functions key" "{}" "$" "";
  expect_err "empty functions" "{\"functions\":[]}" "functions" "no function";
  expect_err "jmp without label"
    "{\"functions\":[{\"name\":\"f\",\"instrs\":[{\"op\":\"jmp\"}]}]}" "functions[0].instrs[0]" "";
  expect_err "unknown branch target"
    "{\"functions\":[{\"name\":\"f\",\"instrs\":[{\"op\":\"jmp\",\"labels\":[\"nowhere\"]}]}]}"
    "functions[0]" "nowhere";
  expect_err "duplicate label"
    "{\"functions\":[{\"name\":\"f\",\"instrs\":[{\"label\":\"a\"},{\"label\":\"a\"}]}]}" "functions[0]"
    "a"

(* ---- the vendored corpus through the full registry ---- *)

let graphs_of_corpus () =
  List.concat_map
    (fun file ->
      let text = read_file (Filename.concat corpus_dir file) in
      List.map (fun (fn, g) -> (file ^ ":" ^ fn, g)) (parse_bril file text))
    (corpus_files ())

let test_corpus_parses () =
  let graphs = graphs_of_corpus () in
  Alcotest.(check bool) "corpus is non-empty" true (List.length graphs >= 8);
  List.iter
    (fun (what, g) ->
      Alcotest.(check bool) (what ^ " has blocks") true (Cfg.num_blocks g >= 2);
      (* Every graph must survive a static round through the verifier's
         input expectations: one exit, terminators resolved. *)
      let s = Metrics.static_counts g in
      Alcotest.(check bool) (what ^ " instrs counted") true (s.Metrics.instrs >= 0))
    graphs

let test_corpus_all_algorithms () =
  let graphs = graphs_of_corpus () in
  List.iter
    (fun (what, g) ->
      let inputs = Cfg.all_vars g in
      (* The paper's verifier on the LCM spec itself. *)
      (match Placement_check.check g (Lcm_edge.spec g (Lcm_edge.analyze g)) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: placement check: %s" what m);
      List.iter
        (fun (e : Registry.entry) ->
          let g' = e.Registry.run g in
          match
            Oracle.semantics ~runs:6 ~inputs (Prng.of_int 97) ~original:g ~transformed:g'
          with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s/%s: %s" what e.Registry.name m)
        Registry.safe)
    graphs

let test_diamond_pre_fires () =
  (* The partially redundant a+b in the diamond must move: one insertion
     on the empty arm, one deletion at the join. *)
  let text = read_file (Filename.concat corpus_dir "diamond.json") in
  let g = snd (List.hd (parse_bril "diamond" text)) in
  let r = Lcm_edge.analyze g in
  let spec = Lcm_edge.spec g r in
  Alcotest.(check bool) "has insertions" true (spec.Lcm_core.Transform.edge_inserts <> []);
  Alcotest.(check bool) "has deletions" true (spec.Lcm_core.Transform.deletes <> [])

(* ---- round-trip: parse ∘ print ---- *)

let roundtrip what g =
  let t1 = Bril.print g in
  let g2 =
    match Bril.parse_program t1 with
    | [ (_, g2) ] -> g2
    | _ -> Alcotest.failf "%s: printed program is not one function" what
    | exception Bril.Err (m, path) ->
      Alcotest.failf "%s: printed program does not re-parse (%s: %s)\n%s" what path m t1
  in
  g2

let test_corpus_roundtrip () =
  List.iter
    (fun (what, g) ->
      let g2 = roundtrip what g in
      let g3 = roundtrip (what ^ " (second round)") g2 in
      (* Printing is a fixpoint from the first re-parse on: the same bytes,
         the same canonical digest. *)
      Alcotest.(check string) (what ^ " text fixpoint") (Bril.print g2) (Bril.print g3);
      Alcotest.(check string) (what ^ " digest fixpoint") (Cfg.digest g2) (Cfg.digest g3);
      (* And it means the same program. *)
      match
        Oracle.semantics ~runs:6 ~inputs:(Cfg.all_vars g) (Prng.of_int 11) ~original:g ~transformed:g2
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: round-trip changed semantics: %s" what m)
    (graphs_of_corpus ())

(* Arbitrary graphs — including ones no Bril program could have produced
   (constant operands, constant branch conditions) — still normalize to a
   printing fixpoint after one round. *)
let prop_roundtrip_stabilizes =
  QCheck2.Test.make ~name:"bril print ∘ parse reaches a fixpoint on random graphs" ~count:80
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 31) in
      let g = fst (Lcse.run (Gencfg.random_cfg rng)) in
      let g2 = roundtrip "random" g in
      let g3 = roundtrip "random (second round)" g2 in
      let t2 = Bril.print g2 and t3 = Bril.print g3 in
      if t2 <> t3 then QCheck2.Test.fail_reportf "not a fixpoint:\n%s\nvs\n%s" t2 t3;
      if Cfg.digest g2 <> Cfg.digest g3 then QCheck2.Test.fail_report "digest unstable";
      (* The normalized graph still means the same program as its own
         round-trip (the first round may coerce constants to their
         declared type, so compare from g2 on). *)
      match
        Oracle.semantics ~runs:6 ~inputs:(Cfg.all_vars g2) (Prng.of_int (seed + 1)) ~original:g2
          ~transformed:g3
      with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_reportf "round-trip changed semantics: %s" m)

(* ---- the serving path ---- *)

let now = Unix.gettimeofday

let engine_cfg () =
  let stats = Stats.create () in
  Engine.default_config stats

let exec cfg frame =
  match Protocol.parse_request frame with
  | Error (_, _, code, m) -> Alcotest.failf "bad test frame (%s): %s" (Protocol.error_code_to_string code) m
  | Ok req ->
    let t = now () in
    Json.parse (Engine.execute cfg ~now ~arrival:t ~deadline:None req)

let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

let run_frame ?(extra = "") ~format program =
  Printf.sprintf "{\"id\":1,\"op\":\"run\",\"format\":%S,\"algorithm\":\"lcm-edge\"%s,\"program\":%s}" format
    extra
    (Json.to_string (Json.String program))

let test_engine_bril_request () =
  let cfg = engine_cfg () in
  let text = read_file (Filename.concat corpus_dir "diamond.json") in
  let resp = exec cfg (run_frame ~format:"bril" text) in
  Alcotest.(check (option string)) "status" (Some "ok") (str_field "status" resp);
  (* The response program is the optimized graph in the canonical text the
     whole system shares. *)
  let g = snd (List.hd (parse_bril "diamond" text)) in
  let expected = Cfg.to_string ((Option.get (Registry.find "lcm-edge")).Registry.run g) in
  Alcotest.(check (option string)) "program" (Some expected) (str_field "program" resp);
  (* Sniffing: no format field and a '{' program routes to bril. *)
  let sniffed =
    exec cfg
      (Printf.sprintf "{\"id\":2,\"op\":\"run\",\"algorithm\":\"lcm-edge\",\"program\":%s}"
         (Json.to_string (Json.String text)))
  in
  Alcotest.(check (option string)) "sniffed status" (Some "ok") (str_field "status" sniffed);
  Alcotest.(check (option string)) "sniffed ≡ explicit" (str_field "program" resp)
    (str_field "program" sniffed);
  (* Function selection over the wire. *)
  let multi = read_file (Filename.concat corpus_dir "multi_func.json") in
  let resp = exec cfg (run_frame ~format:"bril" ~extra:",\"function\":\"second\"" multi) in
  Alcotest.(check (option string)) "function pick" (Some "ok") (str_field "status" resp);
  let resp = exec cfg (run_frame ~format:"bril" multi) in
  Alcotest.(check (option string)) "missing pick is bad_request" (Some "bad_request")
    (str_field "code" resp);
  (* Per-format counters registered and bumped. *)
  let stats = exec cfg "{\"id\":3,\"op\":\"stats\"}" in
  let counters j = Option.bind (Json.member "stats" j) (Json.member "counters") in
  match Option.bind (counters stats) (Json.member "requests.format.bril") with
  | Some (Json.Int n) -> Alcotest.(check bool) "requests.format.bril counted" true (n >= 4)
  | _ -> Alcotest.fail "stats lack requests.format.bril"

let test_engine_unsupported_format () =
  let cfg = engine_cfg () in
  let resp = exec cfg (run_frame ~format:"llvm" "whatever") in
  Alcotest.(check (option string)) "status" (Some "error") (str_field "status" resp);
  Alcotest.(check (option string)) "code" (Some "unsupported_format") (str_field "code" resp);
  match str_field "message" resp with
  | Some m ->
    List.iter
      (fun name -> if not (contains m name) then Alcotest.failf "message %S lacks %S" m name)
      Frontend.names
  | None -> Alcotest.fail "no message"

let test_engine_bril_parse_error_path () =
  let cfg = engine_cfg () in
  let resp = exec cfg (run_frame ~format:"bril" "{\"functions\":[{\"name\":\"f\",\"instrs\":[{\"op\":\"jmp\"}]}]}") in
  Alcotest.(check (option string)) "code" (Some "parse_error") (str_field "code" resp);
  match str_field "message" resp with
  | Some m ->
    if not (contains m "functions[0].instrs[0]") then
      Alcotest.failf "message %S lacks the JSON path" m
  | None -> Alcotest.fail "no message"

let test_retain_delta_on_bril () =
  (* A Bril-sourced graph through the incremental serving path: retain,
     then patch a block and re-solve, with the from-scratch cross-check. *)
  let cfg = engine_cfg () in
  let text = read_file (Filename.concat corpus_dir "diamond.json") in
  let resp = exec cfg (run_frame ~format:"bril" ~extra:",\"retain\":true" text) in
  Alcotest.(check (option string)) "retain ok" (Some "ok") (str_field "status" resp);
  let handle =
    match str_field "handle" resp with
    | Some h -> h
    | None -> Alcotest.fail "no handle on a retained bril run"
  in
  let retained =
    match str_field "retained_program" resp with
    | Some p -> p
    | None -> Alcotest.fail "no retained_program"
  in
  (* Pick a block with a body from the canonical echo and rewrite it. *)
  let g = Cfg_text.parse retained in
  let target =
    match List.find_opt (fun l -> Cfg.instrs g l <> []) (Cfg.labels g) with
    | Some l -> Printf.sprintf "B%d" (l : Lcm_cfg.Label.t :> int)
    | None -> Alcotest.fail "retained graph has no instructions"
  in
  let frame =
    Printf.sprintf
      "{\"id\":9,\"op\":\"delta\",\"handle\":%S,\"validate\":true,\"edits\":[{\"block\":%S,\"instrs\":[\"zq := a + b\"]}]}"
      handle target
  in
  let resp = exec cfg frame in
  Alcotest.(check (option string)) "delta ok" (Some "ok") (str_field "status" resp);
  match Json.member "solve" resp with
  | Some _ -> ()
  | None -> Alcotest.fail "delta response lacks solve stats"

(* The canonical text is what [Cfg.digest] hashes, the result cache and
   the shard router key on, and handle journals store as snapshots.  These
   digests were recorded with the former [Format]-based printer; the
   buffer printer must reproduce them exactly, before and after lcm-edge. *)
let pinned_corpus_digests =
  [
    ("bool_ops.json:boolops", "f68bef8214dd13028f2586d057d8e535", "f68bef8214dd13028f2586d057d8e535");
    ("call_kill.json:main", "aa0d22844536302ab39b9e63505e13e8", "aa0d22844536302ab39b9e63505e13e8");
    ("call_kill.json:inc", "12e8694abd7ad0faf508da853535f391", "12e8694abd7ad0faf508da853535f391");
    ("diamond.json:diamond", "909f87914a4fb86570ec1ff051647b2d", "67a0f1dc434bfa8daec2ceafdaed49a4");
    ("loop_invariant.json:loopinv", "611157e9536d3a42d5371a405c8917e7", "611157e9536d3a42d5371a405c8917e7");
    ("memory.json:mem", "3e0818ee00df10d08bde8f3cafbc1b02", "3e0818ee00df10d08bde8f3cafbc1b02");
    ("multi_func.json:first", "be540f9426d815e56d7fddee7b7dd153", "be540f9426d815e56d7fddee7b7dd153");
    ("multi_func.json:second", "7b0e739b264b702a1e704a884c27560c", "7b0e739b264b702a1e704a884c27560c");
    ("nested_loop.json:nested", "2289749c89784aca60f4b64edb2c47a4", "2289749c89784aca60f4b64edb2c47a4");
    ("redundant.json:redundant", "0b7adf260e626220ce732844ba96e4e4", "0b7adf260e626220ce732844ba96e4e4");
  ]

let pinned_suite_digests =
  [
    ("diamond", "67205e3bc4729ea0ed5c34440bf8241e", "2538269688201fa554fe6acde3fffe4a");
    ("loop_invariant", "963eb2cff150640cb20774300d83b41e", "963eb2cff150640cb20774300d83b41e");
    ("guarded_invariant", "fd577e9df926e550533fc25ad0d8283c", "fd577e9df926e550533fc25ad0d8283c");
    ("nested_loops", "c7f119747cff7228bb1322caf9b18ea7", "c7f119747cff7228bb1322caf9b18ea7");
    ("cse_chain", "2e2cac521b57be801008a63b6f8e928e", "2e2cac521b57be801008a63b6f8e928e");
    ("kill_and_recompute", "f3e2243cd480ebcc30b6efb01b4a4b62", "02aac68d3f2288d1d72c940ce7945a68");
    ("two_arm_redundancy", "a77ac7cc91d296fd087c9b8bc828d093", "6393bfabdaf77dde7083bf4f5ec99ab9");
    ("loop_with_exit_use", "318b4c4a177f0597835f75ef6ccd295d", "5cbb69f1177722a5449ceaf0acf7f974");
    ("deep_branches", "464b35fd6b7111bdc9f3c740cd6c1e34", "464b35fd6b7111bdc9f3c740cd6c1e34");
    ("do_while_invariant", "1844c00197d1c543ce6d10f84200d064", "790df8193b2f655d903dc1ba51fd7e84");
    ("gcd", "c83d7aa3021ab446f26d90b5e7d91c16", "c83d7aa3021ab446f26d90b5e7d91c16");
    ("fib", "41ea4a8eea69c54f32ce2990dbc31ea9", "41ea4a8eea69c54f32ce2990dbc31ea9");
    ("poly_eval", "c208a62718e1c0653b357615766406a9", "fc95963570793d1f7f76378a00c23c1f");
    ("collatz_steps", "e5fb0aeb757381dd66781d234ddabb2f", "e5fb0aeb757381dd66781d234ddabb2f");
    ("prime_count", "ae6ab347ba4521ca9a2295630b348fd4", "ae6ab347ba4521ca9a2295630b348fd4");
  ]

let test_pinned_digests () =
  let lcm g =
    Lcm_core.Pass.Pipeline.run_graph Lcm_core.Pass.default_ctx
      (Option.get (Registry.find "lcm-edge")).Registry.pipeline g
  in
  let check what g (input, output) =
    Alcotest.(check string) (what ^ " input digest") input (Cfg.digest g);
    Alcotest.(check string) (what ^ " lcm-edge digest") output (Cfg.digest (lcm g))
  in
  let graphs = graphs_of_corpus () in
  Alcotest.(check (list string)) "corpus functions"
    (List.map (fun (w, _, _) -> w) pinned_corpus_digests)
    (List.map fst graphs);
  List.iter2 (fun (what, g) (_, i, o) -> check what g (i, o)) graphs pinned_corpus_digests;
  List.iter
    (fun (name, i, o) ->
      check name (Lcm_eval.Suites.graph (Option.get (Lcm_eval.Suites.find name))) (i, o))
    pinned_suite_digests

let suite =
  [
    Alcotest.test_case "registry: names, default, extensions" `Quick test_registry;
    Alcotest.test_case "function selection policy" `Quick test_function_selection;
    Alcotest.test_case "bril: typed errors carry JSON paths" `Quick test_parse_errors;
    Alcotest.test_case "corpus: every program parses" `Quick test_corpus_parses;
    Alcotest.test_case "corpus: every safe algorithm preserves semantics" `Slow test_corpus_all_algorithms;
    Alcotest.test_case "corpus: diamond PRE fires" `Quick test_diamond_pre_fires;
    Alcotest.test_case "corpus: print ∘ parse is a fixpoint" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus and suites: canonical digests are pinned" `Quick test_pinned_digests;
    QCheck_alcotest.to_alcotest prop_roundtrip_stabilizes;
    Alcotest.test_case "engine: bril requests end to end" `Quick test_engine_bril_request;
    Alcotest.test_case "engine: unsupported_format" `Quick test_engine_unsupported_format;
    Alcotest.test_case "engine: bril parse errors keep their path" `Quick test_engine_bril_parse_error_path;
    Alcotest.test_case "engine: retain + delta on a bril graph" `Quick test_retain_delta_on_bril;
  ]
