(* Observability layer: Trace spans and context, Prof aggregation, the
   exporters, the Pass/Pipeline API the optimizers were ported onto, the
   Stats snapshot schema, and typed metric handles.

   Tracing state is process-global; every test that enables collection
   disables it (and drains) before returning so suites stay independent. *)

module Pool = Lcm_support.Pool
module Cfg = Lcm_cfg.Cfg
module Pass = Lcm_core.Pass
module Trace = Lcm_obs.Trace
module Prof = Lcm_obs.Prof
module Registry = Lcm_eval.Registry
module Corpus = Lcm_eval.Corpus
module Suites = Lcm_eval.Suites
module Stats = Lcm_server.Stats
module Json = Lcm_server.Json

let with_tracing f =
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Trace.drain ());
      Trace.disable ())
    f

let diamond () = Suites.graph (Option.get (Suites.find "diamond"))

let corpus_graph ~blocks ~seed =
  (List.hd (Corpus.generate ~seed [ (blocks, 1) ])).Corpus.graph

(* ---- Trace: spans, context, well-formedness ---- *)

let test_disabled_is_passthrough () =
  Trace.disable ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check int) "span is f()" 41 (Trace.span "x" (fun () -> 41));
  Alcotest.(check int) "in_trace is f()" 42 (Trace.in_trace ~trace_id:"t" "x" (fun () -> 42));
  Alcotest.(check (list reject)) "nothing recorded" [] (List.map ignore (Trace.drain ()))

let test_span_nesting () =
  with_tracing (fun () ->
      Trace.in_trace ~trace_id:"nest" "root" (fun () ->
          Trace.span "a" (fun () -> Trace.span "b" (fun () -> ())));
      let spans = Trace.drain () in
      let find n = List.find (fun (s : Trace.span) -> s.Trace.name = n) spans in
      let root = find "root" and a = find "a" and b = find "b" in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      Alcotest.(check int) "root is a root" (-1) root.Trace.parent;
      Alcotest.(check int) "a under root" root.Trace.id a.Trace.parent;
      Alcotest.(check int) "b under a" a.Trace.id b.Trace.parent;
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check string) "trace id inherited" "nest" s.Trace.trace_id;
          Alcotest.(check bool) "non-negative duration" true (Trace.dur s >= 0.))
        spans)

let test_span_error_attr () =
  with_tracing (fun () ->
      (try Trace.in_trace ~trace_id:"e" "boom" (fun () -> failwith "die")
       with Failure _ -> ());
      match Trace.drain () with
      | [ s ] -> Alcotest.(check bool) "error attr" true (List.mem_assoc "error" s.Trace.attrs)
      | l -> Alcotest.failf "expected one span, got %d" (List.length l))

(* The [gc] attribute counts the collections inside the span, as
   [Gc.quick_stat] would: two forced minor collections read 2, and the
   span's count agrees with [Gc.quick_stat]'s across it. *)
let test_span_gc_attr () =
  with_tracing (fun () ->
      let q0 = Gc.quick_stat () in
      Trace.in_trace ~trace_id:"g" "collects" (fun () ->
          Gc.minor ();
          Gc.minor ());
      let q1 = Gc.quick_stat () in
      let expected =
        q1.Gc.minor_collections - q0.Gc.minor_collections + (q1.Gc.major_collections - q0.Gc.major_collections)
      in
      match Trace.drain () with
      | [ s ] ->
        let n = int_of_string (Option.value (List.assoc_opt "gc" s.Trace.attrs) ~default:"0") in
        Alcotest.(check bool) "at least the two forced" true (n >= 2);
        Alcotest.(check int) "as Gc.quick_stat counts" expected n
      | l -> Alcotest.failf "expected one span, got %d" (List.length l))

let test_take_is_per_trace () =
  with_tracing (fun () ->
      Trace.in_trace ~trace_id:"one" "a" (fun () -> ());
      Trace.in_trace ~trace_id:"two" "b" (fun () -> ());
      let one = Trace.take ~trace_id:"one" in
      Alcotest.(check int) "one span taken" 1 (List.length one);
      Alcotest.(check string) "the right trace" "one" (List.hd one).Trace.trace_id;
      let rest = Trace.drain () in
      Alcotest.(check int) "other trace still buffered" 1 (List.length rest);
      Alcotest.(check string) "which is two" "two" (List.hd rest).Trace.trace_id)

let test_mint_ids_unique () =
  let a = Trace.mint_id () and b = Trace.mint_id () in
  Alcotest.(check bool) "prefix" true (String.length a > 2 && String.sub a 0 2 = "t-");
  Alcotest.(check bool) "distinct" true (a <> b)

(* A corpus fanned out over a pool yields one connected span forest —
   pool workers record under the submitter's context, every cascade phase
   appears, nothing dangles.  The pool is 4 domains regardless of
   LCM_DOMAINS so the cross-domain path always runs. *)
let test_span_tree_parallel () =
  let jobs = Corpus.generate ~seed:11 [ (300, 4) ] in
  let pool = Pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      with_tracing (fun () ->
          ignore
            (Trace.in_trace ~trace_id:"par" "request" (fun () ->
                 Corpus.process ~workers:pool jobs));
          let spans = Trace.drain () in
          let ids = List.map (fun (s : Trace.span) -> s.Trace.id) spans in
          List.iter
            (fun (s : Trace.span) ->
              Alcotest.(check string) "single trace id" "par" s.Trace.trace_id;
              if s.Trace.parent <> -1 then
                Alcotest.(check bool)
                  (Printf.sprintf "parent of %s resolves" s.Trace.name)
                  true (List.mem s.Trace.parent ids))
            spans;
          let names = List.map (fun (s : Trace.span) -> s.Trace.name) spans in
          List.iter
            (fun n ->
              Alcotest.(check bool) (n ^ " present") true (List.mem n names))
            [
              "request"; "lcm.local"; "lcm.up_safety"; "lcm.down_safety"; "lcm.earliest"; "lcm.delay";
              "lcm.latest"; "lcm.live"; "lcm.copy"; "lcm.pool"; "pool.task";
            ];
          (* The pool.task spans are the cross-domain hops; each must hang
             off a span of this trace, not float as its own root. *)
          List.iter
            (fun (s : Trace.span) ->
              if s.Trace.name = "pool.task" then
                Alcotest.(check bool) "pool.task has a parent" true (s.Trace.parent <> -1))
            spans))

(* ---- Prof ---- *)

let test_prof_aggregation () =
  with_tracing (fun () ->
      ignore
        (Trace.in_trace ~trace_id:"p" "request" (fun () ->
             Pass.Pipeline.run Pass.default_ctx
               (Option.get (Registry.find "lcm-edge")).Registry.pipeline (diamond ())));
      let spans = Trace.drain () in
      let prof = Prof.create () in
      Prof.add prof spans;
      let rows = Prof.rows prof in
      let find n = List.find_opt (fun (r : Prof.row) -> r.Prof.name = n) rows in
      (match find "pass.lcm-edge" with
      | None -> Alcotest.fail "pass.lcm-edge row missing"
      | Some r ->
        Alcotest.(check int) "count" 1 r.Prof.count;
        Alcotest.(check bool) "sweeps recorded from attrs" true (r.Prof.sweeps > 0);
        Alcotest.(check bool) "visits recorded from attrs" true (r.Prof.visits > 0);
        Alcotest.(check bool) "self <= total" true (r.Prof.self_s <= r.Prof.total_s +. 1e-9));
      (match find "request" with
      | None -> Alcotest.fail "request row missing"
      | Some r ->
        Alcotest.(check bool) "root total covers children" true
          (List.for_all (fun (c : Prof.row) -> c.Prof.total_s <= r.Prof.total_s +. 1e-9) rows));
      (* to_json shape: {"phases": {name: {...}}} *)
      match Json.member "phases" (Prof.to_json prof) with
      | Some (Json.Obj phases) ->
        Alcotest.(check bool) "json has the pass row" true (List.mem_assoc "pass.lcm-edge" phases)
      | _ -> Alcotest.fail "profile json missing phases object")

(* ---- Exporters ---- *)

let test_exporters_parse () =
  with_tracing (fun () ->
      Trace.in_trace ~trace_id:"exp" "root" (fun () -> Trace.span "child" (fun () -> ()));
      let spans = Trace.drain () in
      (match Json.parse (Trace.to_chrome spans) with
      | Json.List evs ->
        Alcotest.(check int) "one event per span" (List.length spans) (List.length evs);
        List.iter
          (fun e ->
            Alcotest.(check (option string)) "complete event" (Some "X")
              (Option.bind (Json.member "ph" e) Json.to_string_opt);
            let args = Option.value (Json.member "args" e) ~default:Json.Null in
            Alcotest.(check (option string)) "trace id in args" (Some "exp")
              (Option.bind (Json.member "trace_id" args) Json.to_string_opt))
          evs
      | _ -> Alcotest.fail "chrome export is not a JSON array");
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (Trace.to_jsonl spans))
      in
      Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
      List.iter
        (fun l ->
          match Json.parse l with
          | Json.Obj _ -> ()
          | _ -> Alcotest.fail "jsonl line is not an object")
        lines)

(* ---- Pass / Pipeline API ---- *)

let test_pass_pipeline () =
  let tag name = Pass.v name (fun _ g -> (g, Pass.report ~notes:[ ("ran", name) ] ())) in
  let pl = Pass.Pipeline.v "combo" [ tag "first"; tag "second" ] in
  let pl = Pass.Pipeline.append pl [ tag "third" ] in
  let g = diamond () in
  let g', reports = Pass.Pipeline.run Pass.default_ctx pl g in
  Alcotest.(check string) "graph threaded through" (Cfg.to_string g) (Cfg.to_string g');
  Alcotest.(check (list string)) "reports in pass order" [ "first"; "second"; "third" ]
    (List.map fst reports);
  List.iter
    (fun (name, (r : Pass.report)) ->
      Alcotest.(check (option string)) "notes survive" (Some name) (List.assoc_opt "ran" r.Pass.notes))
    reports

(* Porting the optimizers onto Pass must not have changed a single bit of
   output: every registry entry's pipeline run is compared against the
   direct (pre-Pass) API on several graphs. *)
let test_registry_bit_identity () =
  let module Lcm_edge = Lcm_core.Lcm_edge in
  let module Bcm_edge = Lcm_core.Bcm_edge in
  let module Lcm_node = Lcm_core.Lcm_node in
  let module Lcm_block = Lcm_core.Lcm_block in
  let module Lcse = Lcm_opt.Lcse in
  let module Cleanup = Lcm_opt.Cleanup in
  let module Strength_reduction = Lcm_opt.Strength_reduction in
  let module Gcse = Lcm_baselines.Gcse in
  let module Morel_renvoise = Lcm_baselines.Morel_renvoise in
  let module Licm = Lcm_baselines.Licm in
  let direct =
    [
      ("identity", Cfg.copy);
      ("lcse", fun g -> fst (Lcse.run g));
      ("gcse", fun g -> fst (Gcse.transform g));
      ("licm", fun g -> fst (Licm.transform g));
      ("strength-reduction", fun g -> fst (Strength_reduction.run g));
      ("ssa-dvnt", fun g -> fst (Lcm_ssa.Dvnt.pass g));
      ("morel-renvoise", fun g -> fst (Morel_renvoise.transform g));
      ("bcm-edge", fun g -> fst (Bcm_edge.transform g));
      ("lcm-edge", fun g -> fst (Lcm_edge.transform g));
      ("lcm-block", fun g -> fst (Lcm_block.transform g));
      ("bcm-node", fun g -> fst (Lcm_node.transform Lcm_node.Bcm g));
      ("alcm-node", fun g -> fst (Lcm_node.transform Lcm_node.Alcm g));
      ("lcm-node", fun g -> fst (Lcm_node.transform Lcm_node.Lcm g));
      ("lcm-cleanup", fun g -> fst (Cleanup.run (fst (Lcm_edge.transform g))));
      ( "lcm-iterated",
        fun g ->
          let once h = fst (Cleanup.run (fst (Lcm_edge.transform h))) in
          once (once g) );
    ]
  in
  let graphs =
    diamond () :: List.map (fun seed -> corpus_graph ~blocks:40 ~seed) [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, f) ->
      let entry = Option.get (Registry.find name) in
      List.iteri
        (fun i g ->
          let expected = Digest.to_hex (Digest.string (Cfg.to_string (f g))) in
          let got = Digest.to_hex (Digest.string (Cfg.to_string (entry.Registry.run g))) in
          Alcotest.(check string) (Printf.sprintf "%s bit-identical on graph %d" name i)
            expected got)
        graphs)
    direct;
  (* And no registry entry was forgotten by this list. *)
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool) (e.Registry.name ^ " covered") true
        (List.mem_assoc e.Registry.name direct))
    Registry.all

(* ---- Stats: snapshot schema and typed handles ---- *)

let test_snapshot_schema () =
  let t = Stats.create () in
  Stats.incr ~by:4 t "a";
  Stats.observe_ms t "lat" 3.0;
  let snap = Stats.snapshot t in
  Alcotest.(check (option int)) "snapshot carries schema 2" (Some Stats.snapshot_schema)
    (Option.bind (Json.member "schema" snap) Json.to_int_opt);
  (* v2 roundtrip. *)
  let b = Stats.create () in
  Stats.merge_snapshot b snap;
  Alcotest.(check int) "v2 counters merge" 4 (Stats.counter_value b "a");
  Alcotest.(check bool) "v2 histograms merge" true (Stats.quantile_ms b "lat" 0.5 <> None);
  (* v1: no schema field at all — the pre-upgrade on-disk format. *)
  Stats.merge_snapshot b (Json.Obj [ ("counters", Json.Obj [ ("a", Json.Int 2) ]) ]);
  Alcotest.(check int) "v1 accepted additively" 6 (Stats.counter_value b "a");
  (* A snapshot from the future is skipped whole, not half-merged. *)
  Stats.merge_snapshot b
    (Json.Obj [ ("schema", Json.Int 3); ("counters", Json.Obj [ ("a", Json.Int 100) ]) ]);
  Alcotest.(check int) "newer schema skipped" 6 (Stats.counter_value b "a")

let test_typed_handles () =
  let t = Stats.create () in
  let c = Stats.counter t "reqs" in
  Stats.bump c;
  Stats.bump ~by:2 c;
  Alcotest.(check int) "bump accumulates" 3 (Stats.value c);
  Alcotest.(check int) "same cell as the raw view" 3 (Stats.counter_value t "reqs");
  Alcotest.(check string) "name retained" "reqs" (Stats.counter_name c);
  let h = Stats.histo t "lat" in
  Stats.observe h 5.0;
  Alcotest.(check bool) "observation lands" true (Stats.quantile_ms t "lat" 0.5 <> None);
  Alcotest.(check string) "histo name retained" "lat" (Stats.histo_name h);
  (* Handles hold the name, not the cell: they survive reset. *)
  Stats.reset t;
  Alcotest.(check int) "reset zeroes" 0 (Stats.value c);
  Stats.bump c;
  Alcotest.(check int) "handle valid after reset" 1 (Stats.value c)

(* The serving layer must only touch metrics through Smetrics' typed
   handles — a raw string key at a call site is exactly the drift the
   handles exist to prevent.  Enforced by scanning the sources (dune
   copies them next to the test binary's tree). *)
let test_no_raw_metric_keys () =
  let rec find_root dir depth =
    if depth > 6 then None
    else if Sys.file_exists (Filename.concat dir "lib/server/engine.ml") then Some dir
    else find_root (Filename.concat dir "..") (depth + 1)
  in
  match find_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "cannot locate lib/server sources from the test cwd"
  | Some root ->
    List.iter
      (fun file ->
        let path = Filename.concat root ("lib/server/" ^ file) in
        let src = In_channel.with_open_text path In_channel.input_all in
        let contains needle =
          let n = String.length needle and m = String.length src in
          let rec go i = i + n <= m && (String.sub src i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (file ^ " has no raw Stats.incr") false (contains "Stats.incr");
        Alcotest.(check bool)
          (file ^ " has no raw Stats.observe_ms")
          false (contains "Stats.observe_ms"))
      [ "engine.ml"; "daemon.ml"; "supervisor.ml" ]

(* ---- JSON: escapes, truncation, round trip ---- *)

let parses_to what expected text =
  match Json.parse text with
  | Json.String got -> Alcotest.(check string) what expected got
  | _ -> Alcotest.failf "%s: not a string" what
  | exception Json.Parse_error m -> Alcotest.failf "%s: Parse_error %s" what m

let rejects what text =
  match Json.parse text with
  | _ -> Alcotest.failf "%s: %S parsed" what text
  | exception Json.Parse_error _ -> ()

let test_json_unicode_escapes () =
  parses_to "ascii" "A" {|"A"|};
  parses_to "upper-case hex" "\xc3\xa9" {|"\u00E9"|};
  parses_to "two-byte" "\xc3\xa9" {|"\u00e9"|};
  parses_to "three-byte" "\xe2\x82\xac" {|"\u20ac"|};
  parses_to "surrogate pair" "\xf0\x9f\x98\x80" {|"\ud83d\ude00"|};
  parses_to "highest pair" "\xf4\x8f\xbf\xbf" {|"\udbff\udfff"|};
  parses_to "escape between runs" "ab\ncd\"e\xc3\xa9f" {|"ab\ncd\"e\u00e9f"|};
  rejects "separator in the digits" {|"\u0_41"|};
  rejects "sign in the digits" {|"\u+041"|};
  rejects "three digits" {|"\u041"|};
  rejects "three digits then a quote" {|"\u041""|};
  rejects "lone high surrogate" {|"\ud83d"|};
  rejects "high surrogate then text" {|"\ud83dx"|};
  rejects "high surrogate then non-surrogate" {|"\ud83d\u0041"|};
  rejects "two high surrogates" {|"\ud83d\ud83d"|};
  rejects "lone low surrogate" {|"\ude00"|}

(* A request frame whose program string mixes copied runs with every kind
   of escape.  Cut at every byte offset, it must fail with [Parse_error]
   and nothing else: the scanner reads past no bound. *)
let test_json_truncation () =
  let frame =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 7);
           ("op", Json.String "run");
           ("validate", Json.Bool true);
           ("deadline", Json.Null);
           ("ratio", Json.Float 0.25);
           ("program", Json.String "cfg f (entry B0, exit B1)\nB0:\n  x := a + b\n  \"q\" \\ \t\001\nB1:\n  halt");
           ("args", Json.List [ Json.Int (-12); Json.Bool false ]);
         ])
  in
  let frame = String.sub frame 0 (String.length frame - 1) ^ {|,"u":"\u00e9\ud83d\ude00x\/"}|} in
  Alcotest.(check bool) "whole frame parses" true
    (match Json.parse frame with Json.Obj _ -> true | _ -> false);
  for cut = 0 to String.length frame - 1 do
    match Json.parse (String.sub frame 0 cut) with
    | _ -> Alcotest.failf "prefix of %d bytes parsed" cut
    | exception Json.Parse_error _ -> ()
    | exception e -> Alcotest.failf "prefix of %d bytes raised %s" cut (Printexc.to_string e)
  done

let gen_json =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun n -> Json.Int n) int;
               (* Integral floats print as integers; these round-trip. *)
               map (fun k -> Json.Float (float_of_int k +. 0.5)) (int_range (-100_000) 100_000);
               map (fun s -> Json.String s) str;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (depth - 1)))));
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"Json.parse (Json.to_string v) = v" ~count:500 ~print:Json.to_string gen_json
    (fun v -> Json.parse (Json.to_string v) = v)

(* The encoder that wrote one byte at a time into a 256-byte buffer,
   kept as the reference for the run-copying one. *)
module Reference_json = struct
  let escape_into buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let float_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Json.Int n -> Buffer.add_string buf (string_of_int n)
      | Json.Float f ->
        if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
        else Buffer.add_string buf (float_to_string f)
      | Json.Raw (len, write) ->
        let b = Bytes.create len in
        write b 0;
        Buffer.add_bytes buf b
      | Json.String s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
      | Json.List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
      | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape_into buf k;
            Buffer.add_string buf "\":";
            go x)
          fields;
        Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf
end

(* Strings built from pieces that stress the run boundaries: plain ASCII
   runs, every byte that needs an escape (quotes, backslashes, all control
   characters), DEL, stray high bytes and whole UTF-8 sequences of two to
   four bytes, in any order and at either end. *)
let gen_tricky_string =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        (3, string_size ~gen:(char_range 'a' 'z') (int_bound 8));
        (2, map (String.make 1) (oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x7f' ]));
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (1, map (String.make 1) char);
        (2, oneofl [ "\xc3\xa9"; "\xce\xbb"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xef\xbb\xbf" ]);
      ]
  in
  map (String.concat "") (list_size (int_bound 24) piece)

let prop_json_encoder_reference =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> Json.String s) gen_tricky_string;
          map2
            (fun k s -> Json.Obj [ (k, Json.String s); ("n", Json.Int 1); ("l", Json.List [ Json.String k ]) ])
            gen_tricky_string gen_tricky_string;
          gen_json;
        ])
  in
  QCheck2.Test.make ~name:"json: run-copying encoder ≡ per-byte reference" ~count:1000
    ~print:Reference_json.to_string gen (fun v -> String.equal (Json.to_string v) (Reference_json.to_string v))

(* Every byte of the literal is an escape: short escapes, [\u] escapes of
   one to three UTF-8 bytes, and surrogate pairs for four.  [Json.parse]
   and the cursor's [string] must both decode it exactly. *)
let prop_json_escape_dense =
  let gen_code =
    QCheck2.Gen.(
      frequency
        [
          (3, int_range 0 0x7f);
          (2, int_range 0x80 0x7ff);
          (2, oneof [ int_range 0x800 0xd7ff; int_range 0xe000 0xffff ]);
          (2, int_range 0x10000 0x10ffff);
        ])
  in
  let escape buf code =
    match code with
    | 0x22 -> Buffer.add_string buf {|\"|}
    | 0x5c -> Buffer.add_string buf {|\\|}
    | 0x2f -> Buffer.add_string buf {|\/|}
    | 0x0a -> Buffer.add_string buf {|\n|}
    | 0x09 -> Buffer.add_string buf {|\t|}
    | 0x08 -> Buffer.add_string buf {|\b|}
    | 0x0c -> Buffer.add_string buf {|\f|}
    | 0x0d -> Buffer.add_string buf {|\r|}
    | c when c >= 0x10000 ->
      let c = c - 0x10000 in
      Buffer.add_string buf (Printf.sprintf "\\u%04X\\u%04x" (0xD800 lor (c lsr 10)) (0xDC00 lor (c land 0x3ff)))
    | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" c)
  in
  QCheck2.Test.make ~name:"json: escape-dense strings decode exactly" ~count:300
    QCheck2.Gen.(list_size (int_bound 40) gen_code)
    (fun codes ->
      let text = Buffer.create 64 and want = Buffer.create 64 in
      Buffer.add_char text '"';
      List.iter
        (fun code ->
          escape text code;
          Buffer.add_utf_8_uchar want (Uchar.of_int code))
        codes;
      Buffer.add_char text '"';
      let text = Buffer.contents text and want = Buffer.contents want in
      let c = Json.cursor text in
      let via_cursor = Json.string c in
      Json.finish c;
      Json.parse text = Json.String want && via_cursor = want)

(* A run request carrying a Bril program: the program string has an
   escaped quote every few bytes.  Cut at every byte offset, [parse] and
   [skip] must both fail with [Parse_error] and nothing else. *)
let test_json_bril_frame_truncation () =
  let program =
    {|{"functions":[{"name":"main","args":[{"name":"a","type":"int"}],"instrs":[{"op":"const","dest":"one","type":"int","value":1},{"label":"loop"},{"op":"add","dest":"x","type":"int","args":["a","one"]},{"op":"br","args":["c"],"labels":["loop","done"]},{"label":"done","pos":{"row":3,"col":-1}},{"op":"alloc","dest":"p","type":{"ptr":"int"},"args":["x"]},{"op":"ret","args":["x"]}]}]}|}
  in
  let frame =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int 1); ("op", Json.String "run"); ("format", Json.String "bril"); ("program", Json.String program) ])
  in
  (match Json.member "program" (Json.parse frame) with
  | Some (Json.String p) -> Alcotest.(check string) "program survives the frame" program p
  | _ -> Alcotest.fail "no program in the frame");
  let skip s =
    let c = Json.cursor s in
    Json.skip c;
    Json.finish c
  in
  for cut = 0 to String.length frame - 1 do
    let prefix = String.sub frame 0 cut in
    (match Json.parse prefix with
    | _ -> Alcotest.failf "prefix of %d bytes parsed" cut
    | exception Json.Parse_error _ -> ()
    | exception e -> Alcotest.failf "prefix of %d bytes raised %s" cut (Printexc.to_string e));
    match skip prefix with
    | () -> Alcotest.failf "prefix of %d bytes skipped" cut
    | exception Json.Parse_error _ -> ()
    | exception e -> Alcotest.failf "skipping a prefix of %d bytes raised %s" cut (Printexc.to_string e)
  done

(* [skip] validates exactly what [parse] accepts, with the same first
   error: printed documents with a few bytes overwritten, inserted or
   deleted. *)
let prop_json_skip_matches_parse =
  let alphabet = {|{}[]",:\u0123456789abcdefABCDEF.eE+-tfnrl /xyzD8|} ^ "\n\t" in
  QCheck2.Test.make ~name:"json: skip accepts and rejects what parse does" ~count:1000
    QCheck2.Gen.(pair gen_json (list_size (int_range 0 3) (triple (int_bound 2) nat (int_bound 99))))
    (fun (v, edits) ->
      let text =
        List.fold_left
          (fun s (op, at, ch) ->
            let n = String.length s in
            let ch = String.make 1 alphabet.[ch mod String.length alphabet] in
            match op with
            | 0 when n > 0 -> String.sub s 0 (at mod n) ^ ch ^ String.sub s ((at mod n) + 1) (n - (at mod n) - 1)
            | 1 when n > 0 -> String.sub s 0 (at mod n) ^ String.sub s ((at mod n) + 1) (n - (at mod n) - 1)
            | _ -> String.sub s 0 (at mod (n + 1)) ^ ch ^ String.sub s (at mod (n + 1)) (n - (at mod (n + 1))))
          (Json.to_string v) edits
      in
      let parsed = match Json.parse text with _ -> None | exception Json.Parse_error m -> Some m in
      let skipped =
        match
          let c = Json.cursor text in
          Json.skip c;
          Json.finish c
        with
        | () -> None
        | exception Json.Parse_error m -> Some m
      in
      if parsed <> skipped then
        QCheck2.Test.fail_reportf "%S\nparse: %s\nskip:  %s" text
          (Option.value parsed ~default:"ok")
          (Option.value skipped ~default:"ok");
      true)

let suite =
  [
    Alcotest.test_case "disabled tracing is pass-through" `Quick test_disabled_is_passthrough;
    Alcotest.test_case "span nesting and context" `Quick test_span_nesting;
    Alcotest.test_case "error spans keep the attribute" `Quick test_span_error_attr;
    Alcotest.test_case "take is per-trace" `Quick test_take_is_per_trace;
    Alcotest.test_case "minted trace ids" `Quick test_mint_ids_unique;
    Alcotest.test_case "span tree across 4 domains" `Quick test_span_tree_parallel;
    Alcotest.test_case "span gc attribute counts collections" `Quick test_span_gc_attr;
    Alcotest.test_case "profile aggregation" `Quick test_prof_aggregation;
    Alcotest.test_case "exporters parse" `Quick test_exporters_parse;
    Alcotest.test_case "pass pipeline combinator" `Quick test_pass_pipeline;
    Alcotest.test_case "pass-ported optimizers are bit-identical" `Quick test_registry_bit_identity;
    Alcotest.test_case "stats snapshot schema v1/v2" `Quick test_snapshot_schema;
    Alcotest.test_case "typed metric handles" `Quick test_typed_handles;
    Alcotest.test_case "no raw metric keys in serving code" `Quick test_no_raw_metric_keys;
    Alcotest.test_case "json: \\u escapes and surrogates" `Quick test_json_unicode_escapes;
    Alcotest.test_case "json: every truncated frame is a Parse_error" `Quick test_json_truncation;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_escape_dense;
    QCheck_alcotest.to_alcotest prop_json_encoder_reference;
    Alcotest.test_case "json: every truncated bril frame is a Parse_error" `Quick test_json_bril_frame_truncation;
    QCheck_alcotest.to_alcotest prop_json_skip_matches_parse;
  ]
