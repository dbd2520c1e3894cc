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

(* ---- the cursor reader against a tree reader ----

   [Ref_reader] is the Bril reader as it was when it parsed the whole
   document into a [Json.t] first: kept here, and only here, as the
   reference the streaming reader must agree with — same graphs, or the
   same [Err (message, path)]. *)

module Ref_reader = struct
  module Label = Lcm_cfg.Label
  module Lower = Lcm_cfg.Lower
  module Validate = Lcm_cfg.Validate
  module Expr = Lcm_ir.Expr
  module Instr = Lcm_ir.Instr

  let fail path fmt = Printf.ksprintf (fun m -> raise (Bril.Err (m, path))) fmt

  exception Bad_instr of string

  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_instr m)) fmt

  let instr_path fpath i = Printf.sprintf "%s.instrs[%d]" fpath i

  let rec token_of_type = function
    | Json.String s -> s
    | Json.Obj [ (k, v) ] -> k ^ "<" ^ token_of_type v ^ ">"
    | _ -> bad "unsupported type"

  let binop_of_op = function
    | "add" -> Some Expr.Add
    | "sub" -> Some Expr.Sub
    | "mul" -> Some Expr.Mul
    | "div" -> Some Expr.Div
    | "mod" -> Some Expr.Mod
    | "eq" -> Some Expr.Eq
    | "ne" -> Some Expr.Ne
    | "lt" -> Some Expr.Lt
    | "le" -> Some Expr.Le
    | "gt" -> Some Expr.Gt
    | "ge" -> Some Expr.Ge
    | "and" -> Some Expr.And
    | "or" -> Some Expr.Or
    | _ -> None

  let unop_of_op = function
    | "not" -> Some Expr.Not
    | "neg" -> Some Expr.Neg
    | _ -> None

  let get_string path field j =
    match Option.bind (Json.member field j) Json.to_string_opt with
    | Some s -> s
    | None -> fail path "missing or non-string field %S" field

  let string_list field = function
    | None | Some Json.Null -> []
    | Some (Json.List xs) ->
      List.map
        (function
          | Json.String s -> s
          | _ -> bad "field %S must be a list of strings" field)
        xs
    | Some _ -> bad "field %S must be a list of strings" field

  (* One parsed Bril instruction (terminators included, handled by the
     block splitter). *)
  type instr =
    | I_plain of Instr.t
    | I_label of string
    | I_jmp of string
    | I_br of string * string * string
    | I_ret of string option
    | I_nop

  (* The fields an instruction object may carry, gathered in one pass over
     its members.  The first occurrence of a key wins, as with
     [Json.member]. *)
  type fields = {
    mutable f_label : Json.t option;
    mutable f_op : Json.t option;
    mutable f_args : Json.t option;
    mutable f_labels : Json.t option;
    mutable f_funcs : Json.t option;
    mutable f_dest : Json.t option;
    mutable f_type : Json.t option;
    mutable f_value : Json.t option;
  }

  let gather members =
    let f =
      {
        f_label = None;
        f_op = None;
        f_args = None;
        f_labels = None;
        f_funcs = None;
        f_dest = None;
        f_type = None;
        f_value = None;
      }
    in
    List.iter
      (fun (k, v) ->
        match k with
        | "label" -> if f.f_label = None then f.f_label <- Some v
        | "op" -> if f.f_op = None then f.f_op <- Some v
        | "args" -> if f.f_args = None then f.f_args <- Some v
        | "labels" -> if f.f_labels = None then f.f_labels <- Some v
        | "funcs" -> if f.f_funcs = None then f.f_funcs <- Some v
        | "dest" -> if f.f_dest = None then f.f_dest <- Some v
        | "type" -> if f.f_type = None then f.f_type <- Some v
        | "value" -> if f.f_value = None then f.f_value <- Some v
        | _ -> ())
      members;
    f

  let parse_instr = function
    | Json.Obj members ->
      let fs = gather members in
      (match fs.f_label with
      | Some (Json.String l) -> I_label l
      | Some _ -> bad "label must be a string"
      | None ->
        let op =
          match fs.f_op with
          | Some (Json.String op) -> op
          | _ -> bad "instruction has neither \"op\" nor \"label\""
        in
        let args = string_list "args" fs.f_args in
        let labels = string_list "labels" fs.f_labels in
        let funcs = string_list "funcs" fs.f_funcs in
        let dest () =
          match fs.f_dest with
          | Some (Json.String d) -> d
          | _ -> bad "missing or non-string field %S" "dest"
        in
        let ty () = token_of_type (Option.value fs.f_type ~default:Json.Null) in
        let effect () =
          let d =
            match fs.f_dest with
            | None | Some Json.Null -> None
            | Some _ -> Some (dest (), ty ())
          in
          I_plain
            (Instr.Effect
               { Instr.eff_op = op; eff_dest = d; eff_args = List.map (fun a -> Expr.Var a) args; eff_funcs = funcs })
        in
        (match op with
        | "nop" -> I_nop
        | "jmp" ->
          (match labels with
          | [ l ] -> I_jmp l
          | _ -> bad "jmp needs exactly one label")
        | "br" ->
          (match (args, labels) with
          | [ c ], [ t; f ] -> I_br (c, t, f)
          | _ -> bad "br needs one argument and two labels")
        | "ret" ->
          (match args with
          | [] -> I_ret None
          | [ a ] -> I_ret (Some a)
          | _ -> bad "ret takes at most one argument")
        | "const" ->
          let d = dest () in
          (match (ty (), fs.f_value) with
          | "int", Some (Json.Int n) -> I_plain (Instr.Assign (d, Expr.Atom (Expr.Const n)))
          | "bool", Some (Json.Bool b) -> I_plain (Instr.Assign (d, Expr.Atom (Expr.Const (if b then 1 else 0))))
          | ("int" | "bool"), _ -> bad "const value does not match its type"
          | t, _ -> bad "unsupported constant type %S" t)
        | "id" ->
          (match (ty (), args) with
          | ("int" | "bool"), [ a ] -> I_plain (Instr.Assign (dest (), Expr.Atom (Expr.Var a)))
          | _ -> effect ())
        | "print" ->
          (match args with
          | [ a ] -> I_plain (Instr.Print (Expr.Var a))
          | _ -> effect ())
        | _ ->
          (match (binop_of_op op, unop_of_op op, args) with
          | Some b, _, [ x; y ] when ty () = "int" || ty () = "bool" ->
            I_plain (Instr.Assign (dest (), Expr.Binary (b, Expr.Var x, Expr.Var y)))
          | _, Some u, [ x ] when ty () = "int" || ty () = "bool" ->
            I_plain (Instr.Assign (dest (), Expr.Unary (u, Expr.Var x)))
          | _ -> effect ())))
    | _ -> bad "instruction must be a JSON object"

  (* A basic block under construction: Bril's flat instruction stream is
     split at labels and after terminators. *)
  type term =
    | T_jmp of string
    | T_br of string * string * string
    | T_ret of string option
    | T_fall (* falls through to the next segment (or the function's end) *)

  type seg = {
    s_label : string option;
    s_at : int; (* index of the instruction that opened it *)
    mutable s_body : Instr.t list; (* reversed *)
    mutable s_term : term;
  }

  let segments fpath instrs =
    let segs = ref [] in
    let current = ref None in
    let open_seg ?label at = current := Some { s_label = label; s_at = at; s_body = []; s_term = T_fall } in
    let close term =
      match !current with
      | Some s ->
        s.s_term <- term;
        segs := s :: !segs;
        current := None
      | None -> ()
    in
    List.iteri
      (fun i j ->
        let ins = try parse_instr j with Bad_instr m -> raise (Bril.Err (m, instr_path fpath i)) in
        match ins with
        | I_nop -> ()
        | I_label l ->
          close T_fall;
          open_seg ~label:l i
        | I_jmp l ->
          if !current = None then open_seg i;
          close (T_jmp l)
        | I_br (c, t, f) ->
          if !current = None then open_seg i;
          close (T_br (c, t, f))
        | I_ret a ->
          if !current = None then open_seg i;
          close (T_ret a)
        | I_plain instr ->
          (match !current with
          | None -> open_seg i
          | Some _ -> ());
          (match !current with
          | Some s -> s.s_body <- instr :: s.s_body
          | None -> assert false))
      instrs;
    close T_fall;
    List.rev !segs

  let parse_function fpath j =
    let name = get_string fpath "name" j in
    let instrs =
      match Json.member "instrs" j with
      | Some (Json.List xs) -> xs
      | _ -> fail fpath "missing field \"instrs\""
    in
    let segs = segments fpath instrs in
    let g = Cfg.create ~name () in
    let exit_l = Cfg.exit_label g in
    (* Allocate one block per segment; labels resolve to their segment's
       block.  A leading *unlabelled* segment cannot be a branch target, so
       it becomes the entry block itself; when the function opens with a
       label (Bril code may branch back to it), the entry stays a bare
       [goto first-segment] stub — our entry has no predecessors by
       construction.  The asymmetry makes [parse (print g)] reproduce [g]'s
       block structure exactly: {!print} emits the entry unlabelled. *)
    let blocks =
      List.mapi
        (fun k s ->
          if k = 0 && s.s_label = None then (s, Cfg.entry g)
          else (s, Cfg.add_block g ~instrs:[] ~term:Cfg.Halt))
        segs
    in
    let by_label = Hashtbl.create 16 in
    List.iter
      (fun (s, l) ->
        match s.s_label with
        | Some name ->
          if Hashtbl.mem by_label name then fail (instr_path fpath s.s_at) "duplicate label %S" name;
          Hashtbl.replace by_label name l
        | None -> ())
      blocks;
    let resolve s name =
      match Hashtbl.find_opt by_label name with
      | Some l -> l
      | None -> fail (instr_path fpath s.s_at) "unknown label %S" name
    in
    let rec wire = function
      | [] -> ()
      | (s, l) :: rest ->
        let body = List.rev s.s_body in
        let next = match rest with (_, l') :: _ -> Some l' | [] -> None in
        let body, term =
          match s.s_term with
          | T_jmp t -> (body, Cfg.Goto (resolve s t))
          | T_br (c, t, f) -> (body, Cfg.Branch (Expr.Var c, resolve s t, resolve s f))
          | T_ret None -> (body, Cfg.Goto exit_l)
          | T_ret (Some x) when String.equal x Lower.return_var ->
            (* [ret _ret] is our own writer's spelling; appending
               [_ret := _ret] would grow the graph on every round trip. *)
            (body, Cfg.Goto exit_l)
          | T_ret (Some x) -> (body @ [ Instr.Assign (Lower.return_var, Expr.Atom (Expr.Var x)) ], Cfg.Goto exit_l)
          | T_fall -> (body, Cfg.Goto (Option.value next ~default:exit_l))
        in
        Cfg.set_instrs g l body;
        Cfg.set_term g l term;
        wire rest
    in
    wire blocks;
    (match blocks with
    | (_, l0) :: _ when not (Label.equal l0 (Cfg.entry g)) ->
      Cfg.set_term g (Cfg.entry g) (Cfg.Goto l0)
    | _ -> (* entry merged with the first segment (or no segments at all) *) ());
    Cfg.remove_unreachable g;
    (match Validate.check g with
    | [] -> ()
    | issues -> fail fpath "invalid graph: %s" (String.concat "; " issues));
    (name, g)

  let parse_program text =
    match Json.parse text with
    | exception Json.Parse_error m -> raise (Bril.Err ("malformed JSON: " ^ m, "$"))
    | j ->
      (match Json.member "functions" j with
      | Some (Json.List fs) ->
        if fs = [] then raise (Bril.Err ("program defines no function", "functions"));
        List.mapi (fun i f -> parse_function (Printf.sprintf "functions[%d]" i) f) fs
      | _ -> raise (Bril.Err ("missing field \"functions\"", "$")))

end

let outcome parse text =
  match parse text with
  | graphs -> Ok (List.map (fun (name, g) -> (name, Cfg.digest g)) graphs)
  | exception Bril.Err (m, path) -> Error (m, path)

let show = function
  | Ok graphs -> String.concat ", " (List.map (fun (n, d) -> n ^ "=" ^ d) graphs)
  | Error (m, path) -> Printf.sprintf "Err (%S, %S)" m path

let agree text = outcome Bril.parse_program text = outcome Ref_reader.parse_program text

let check_agree what text =
  let got = outcome Bril.parse_program text and want = outcome Ref_reader.parse_program text in
  if got <> want then Alcotest.failf "%s: %s\nreader:    %s\nreference: %s" what text (show got) (show want)

(* Rewrite a printed program the way other producers spell it: members
   reordered, unknown keys (nested "pos" objects among them) and
   duplicated keys added, now and then a value of the wrong shape, and
   whitespace between every pair of tokens. *)
let rec mutate rng (v : Json.t) : Json.t =
  let pick n = Prng.int rng n in
  match v with
  | Json.Obj members ->
    let members = List.map (fun (k, x) -> (k, mutate rng x)) members in
    let members =
      if pick 3 = 0 then List.map snd (List.sort compare (List.map (fun m -> (pick 1000, m)) members))
      else members
    in
    let insert m l =
      let at = pick (List.length l + 1) in
      List.filteri (fun i _ -> i < at) l @ (m :: List.filteri (fun i _ -> i >= at) l)
    in
    let members =
      match pick 8 with
      | 0 -> insert ("pos", Json.Obj [ ("row", Json.Int (pick 90)); ("col", Json.Int (pick 9)) ]) members
      | 1 -> insert ("extra", Json.List [ Json.String "x\"y"; Json.Null; Json.Float 1.5 ]) members
      | 2 when members <> [] -> insert (List.nth members (pick (List.length members))) members
      | 3 when members <> [] && pick 6 = 0 ->
        let k, _ = List.nth members (pick (List.length members)) in
        let wrong = [| Json.Int 3; Json.Null; Json.String "int"; Json.List []; Json.Obj []; Json.Bool true |] in
        insert (k, wrong.(pick (Array.length wrong))) members
      | _ -> members
    in
    Json.Obj members
  | Json.List xs -> Json.List (List.map (mutate rng) xs)
  | v -> v

let print_spaced rng v =
  let buf = Buffer.create 256 in
  let ws () =
    for _ = 1 to Prng.int rng 3 do
      Buffer.add_char buf (match Prng.int rng 4 with 0 -> ' ' | 1 -> '\n' | 2 -> '\t' | _ -> '\r')
    done
  in
  let rec go v =
    ws ();
    (match v with
    | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      ws ();
      Buffer.add_char buf ']'
    | Json.Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          ws ();
          Buffer.add_string buf (Json.to_string (Json.String k));
          ws ();
          Buffer.add_char buf ':';
          go x)
        members;
      ws ();
      Buffer.add_char buf '}'
    | v -> Buffer.add_string buf (Json.to_string v));
    ws ()
  in
  go v;
  Buffer.contents buf

let prop_reader_matches_tree_reader =
  QCheck2.Test.make ~name:"bril: cursor reader ≡ tree reader on reshaped programs" ~count:300
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 7) in
      let g = Gencfg.random_cfg rng in
      let text = print_spaced rng (mutate rng (Json.parse (Bril.print g))) in
      (* Now and then a cut: a semantic error before the cut must not
         mask the malformed JSON. *)
      let text = if Prng.int rng 5 = 0 then String.sub text 0 (Prng.int rng (String.length text)) else text in
      if not (agree text) then
        QCheck2.Test.fail_reportf "%s\nreader:    %s\nreference: %s" text
          (show (outcome Bril.parse_program text))
          (show (outcome Ref_reader.parse_program text));
      true)

let test_reader_edge_cases () =
  let prog ?(name = {|"name":"f"|}) instrs = Printf.sprintf {|{"functions":[{%s,"instrs":[%s]}]}|} name instrs in
  let add = {|{"op":"add","dest":"x","type":"int","args":["a","b"]}|} in
  let cases =
    [
      ("good", prog add);
      ("functions twice, first wins", Printf.sprintf {|{"functions":[{"name":"f","instrs":[]}],"functions":5}|});
      ("functions twice, first is bad", {|{"functions":5,"functions":[{"name":"f","instrs":[]}]}|});
      ("name twice, first wins", prog ~name:{|"name":"f","name":5|} add);
      ("name twice, first is bad", prog ~name:{|"name":5,"name":"f"|} add);
      ("name after a bad instr", {|{"functions":[{"instrs":[{"op":"jmp"}],"name":7}]}|});
      ("instrs twice, first wins", {|{"functions":[{"name":"f","instrs":[],"instrs":[{"op":"jmp"}]}]}|});
      ("instrs twice, first is bad", {|{"functions":[{"name":"f","instrs":{},"instrs":[]}]}|});
      ("instrs not a list", {|{"functions":[{"name":"f","instrs":"x"}]}|});
      ("top level a list", {|[{"functions":[]}]|});
      ("top level a number", "5");
      ("top level a string", {|"functions"|});
      ("top level null", "null");
      ("function not an object", {|{"functions":[3]}|});
      ("instruction not an object", prog {|5|});
      ("instruction a list", prog {|[]|});
      ("semantic error, then truncated", {|{"functions":[{"name":"f","instrs":[{"op":"jmp"}]}]|});
      ("semantic error, then trailing junk", prog {|{"op":"jmp"}|} ^ " x");
      ("label beats op", prog {|{"op":"add","label":"l"}|});
      ("label not a string", prog {|{"label":3}|});
      ("call with bad dest and type", prog {|{"op":"call","dest":5,"type":7}|});
      ("call with null dest", prog {|{"op":"call","dest":null,"type":7,"args":["a"]}|});
      ("ptr type", prog {|{"op":"alloc","dest":"p","type":{"ptr":{"ptr":"int"}},"args":["n"]}|});
      ("type object with two keys", prog {|{"op":"alloc","dest":"p","type":{"ptr":"int","x":1},"args":["n"]}|});
      ("const float value", prog {|{"op":"const","dest":"x","type":"int","value":1.0}|});
      ("const huge value", prog {|{"op":"const","dest":"x","type":"int","value":99999999999999999999}|});
      ("const bool", prog {|{"op":"const","dest":"x","type":"bool","value":true}|});
      ("args with a number", prog {|{"op":"add","dest":"x","type":"int","args":["a",1]}|});
      ("args and labels both bad", prog {|{"op":"nop","labels":7,"args":7}|});
      ("escaped keys", prog {|{"\u006fp":"add","d\u0065st":"x","type":"int","args":["a","b"]}|});
    ]
  in
  (* The first occurrence of every instruction field wins, whether the
     later one is good or bad. *)
  let fields =
    [
      ({|"op":"add"|}, {|"op":"sub"|});
      ({|"dest":"x"|}, {|"dest":7|});
      ({|"type":"int"|}, {|"type":"bool"|});
      ({|"args":["a","b"]|}, {|"args":["c"]|});
      ({|"value":3|}, {|"value":true|});
      ({|"labels":["l"]|}, {|"labels":5|});
      ({|"funcs":["g"]|}, {|"funcs":[1]|});
      ({|"label":"l"|}, {|"label":2|});
    ]
  in
  let dup_cases =
    List.concat_map
      (fun (a, b) ->
        List.map
          (fun (x, y) ->
            ( "duplicate " ^ x,
              prog (Printf.sprintf {|{%s,%s,"op":"call","dest":"d","type":"int","args":["a","b"],"value":1}|} x y) ))
          [ (a, b); (b, a) ])
      fields
  in
  List.iter (fun (what, text) -> check_agree what text) (cases @ dup_cases);
  let expect what text want =
    let got = outcome Bril.parse_program text in
    if got <> Error want then Alcotest.failf "%s: %s" what (show got)
  in
  expect "first functions is bad" {|{"functions":5,"functions":[{"name":"f","instrs":[]}]}|}
    ({|missing field "functions"|}, "$");
  expect "name beats a later instruction error" {|{"functions":[{"instrs":[{"op":"jmp"}],"name":7}]}|}
    ({|missing or non-string field "name"|}, "functions[0]");
  expect "instruction not an object" (prog "5") ("instruction must be a JSON object", "functions[0].instrs[0]");
  (match outcome Bril.parse_program {|{"functions":[{"name":"f","instrs":[{"op":"jmp"}]}]|} with
  | Error (m, "$") when contains m "malformed JSON" -> ()
  | got -> Alcotest.failf "semantic error then truncation: %s" (show got))

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
    Alcotest.test_case "bril: duplicate keys, shapes and truncation match the tree reader" `Quick
      test_reader_edge_cases;
    QCheck_alcotest.to_alcotest prop_reader_matches_tree_reader;
  ]
