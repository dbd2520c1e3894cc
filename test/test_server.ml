(* The serving subsystem: JSON, framing, bounded queue, metrics registry,
   engine semantics (deadlines, panic isolation, parallel cap), and the
   daemon end to end over pipes — including the acceptance scenarios:
   malformed frame, oversized frame, a pathological request hitting its
   deadline, overload rejection, and drain-while-a-batch-is-in-flight. *)

module Json = Lcm_server.Json
module Frame = Lcm_server.Frame
module Bqueue = Lcm_server.Bqueue
module Stats = Lcm_server.Stats
module Protocol = Lcm_server.Protocol
module Engine = Lcm_server.Engine
module Daemon = Lcm_server.Daemon
module Pool = Lcm_support.Pool
module Cfg = Lcm_cfg.Cfg
module Registry = Lcm_eval.Registry
module Suites = Lcm_eval.Suites
module Lcm_edge = Lcm_core.Lcm_edge

let now = Unix.gettimeofday

(* ---- Json ---- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,null],\"c\":\"x\\ny\"}";
      "{\"nested\":{\"deep\":{\"deeper\":[{\"k\":-42}]}},\"f\":1.5}";
      "\"quote \\\" backslash \\\\ tab \\t\"";
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      let v' = Json.parse (Json.to_string v) in
      Alcotest.(check bool) ("roundtrip " ^ s) true (v = v'))
    cases

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.failf "expected a parse error for %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "\"open"; "{} trailing"; "{\"a\" 1}" ]

let test_json_accessors () =
  let j = Json.parse "{\"i\":3,\"f\":2.0,\"s\":\"x\",\"b\":false}" in
  Alcotest.(check (option int)) "int" (Some 3) (Option.bind (Json.member "i" j) Json.to_int_opt);
  Alcotest.(check (option int)) "integral float" (Some 2) (Option.bind (Json.member "f" j) Json.to_int_opt);
  Alcotest.(check (option string)) "string" (Some "x") (Option.bind (Json.member "s" j) Json.to_string_opt);
  Alcotest.(check (option bool)) "bool" (Some false) (Option.bind (Json.member "b" j) Json.to_bool_opt);
  Alcotest.(check bool) "missing" true (Json.member "zzz" j = None)

(* ---- Frame ---- *)

let feed_string r s =
  let b = Bytes.of_string s in
  Frame.feed r b (Bytes.length b)

let test_frame_chunking () =
  let r = Frame.create ~max_frame:1024 in
  Alcotest.(check bool) "partial" true (feed_string r "hel" = []);
  (match feed_string r "lo\nwor" with
  | [ Frame.Frame "hello" ] -> ()
  | _ -> Alcotest.fail "expected [hello]");
  (match feed_string r "ld\nx\n" with
  | [ Frame.Frame "world"; Frame.Frame "x" ] -> ()
  | _ -> Alcotest.fail "expected [world; x]");
  Alcotest.(check int) "nothing pending" 0 (Frame.pending r)

let test_frame_oversized () =
  let r = Frame.create ~max_frame:8 in
  (* One over-limit line, then a healthy one: the reader must recover. *)
  let events = feed_string r "0123456789abcdef\nok\n" in
  (match events with
  | [ Frame.Oversized n; Frame.Frame "ok" ] -> Alcotest.(check bool) "count" true (n >= 9)
  | _ -> Alcotest.fail "expected [Oversized; ok]");
  (* Oversized split across feeds. *)
  let r = Frame.create ~max_frame:4 in
  Alcotest.(check bool) "silent" true (feed_string r "aaaaaaa" = []);
  (match feed_string r "bbb\nfine\n" with
  | [ Frame.Oversized _; Frame.Frame "fine" ] -> ()
  | _ -> Alcotest.fail "expected [Oversized; fine]")

(* The byte-at-a-time reader the run-copying [Frame.feed] replaced, kept as
   the reference its events must match. *)
module Ref_frame = struct
  type t = {
    max_frame : int;
    buf : Buffer.t;
    mutable discarding : bool;
    mutable discarded : int;
  }

  let create ~max_frame = { max_frame; buf = Buffer.create 16; discarding = false; discarded = 0 }

  let feed r bytes len =
    let events = ref [] in
    for i = 0 to len - 1 do
      let c = Bytes.get bytes i in
      if r.discarding then begin
        if c = '\n' then begin
          events := Frame.Oversized r.discarded :: !events;
          r.discarding <- false;
          r.discarded <- 0
        end
        else r.discarded <- r.discarded + 1
      end
      else if c = '\n' then begin
        events := Frame.Frame (Buffer.contents r.buf) :: !events;
        Buffer.clear r.buf
      end
      else begin
        Buffer.add_char r.buf c;
        if Buffer.length r.buf > r.max_frame then begin
          r.discarding <- true;
          r.discarded <- Buffer.length r.buf;
          Buffer.clear r.buf
        end
      end
    done;
    List.rev !events
end

let show_events evs =
  String.concat "; "
    (List.map
       (function
         | Frame.Frame s -> Printf.sprintf "Frame %d" (String.length s)
         | Frame.Oversized n -> Printf.sprintf "Oversized %d" n)
       evs)

(* Feed [input] cut at [cuts] (increasing offsets) to both readers; each
   feed must yield the reference's events, and the new reader must never
   hold more than [max_frame] bytes. *)
let check_feeds ~max_frame what input cuts =
  let r = Frame.create ~max_frame and reference = Ref_frame.create ~max_frame in
  let chunk = Bytes.make (String.length input + 8) '\n' in
  let rec go from = function
    | [] -> if from < String.length input then go from [ String.length input ]
    | cut :: rest ->
      let len = cut - from in
      Bytes.blit_string input from chunk 0 len;
      (* the bytes past [len] are stale newlines: the reader must not see them *)
      let got = Frame.feed r chunk len and want = Ref_frame.feed reference chunk len in
      if got <> want then
        Alcotest.failf "%s, feed [%d, %d): got [%s], want [%s]" what from cut (show_events got) (show_events want);
      if Frame.pending r > max_frame then
        Alcotest.failf "%s: %d bytes pending over a %d-byte limit" what (Frame.pending r) max_frame;
      go cut rest
  in
  go 0 cuts

let test_frame_matches_reference () =
  let max_frame = 16 in
  let line n ch = String.make n ch ^ "\n" in
  let input =
    String.concat ""
      [ line (max_frame - 1) 'a'; line max_frame 'b'; line (max_frame + 1) 'c'; "\n"; line (3 * max_frame) 'd'; line 1 'e'; "tail" ]
  in
  let n = String.length input in
  check_feeds ~max_frame "one feed" input [];
  for cut = 0 to n do
    check_feeds ~max_frame (Printf.sprintf "split at %d" cut) input [ cut ]
  done;
  for a = 0 to n do
    for b = a to min n (a + max_frame + 2) do
      check_feeds ~max_frame (Printf.sprintf "split at %d and %d" a b) input [ a; b ]
    done
  done;
  for size = 1 to 7 do
    check_feeds ~max_frame (Printf.sprintf "chunks of %d" size) input (List.init (n / size) (fun i -> (i + 1) * size))
  done;
  (* One 64 KiB read holding an over-limit line and a frame: the
     over-limit line is counted in full and never buffered. *)
  let big = String.make 65000 'x' ^ "\nok\n" ^ String.make 535 'y' in
  check_feeds ~max_frame:1024 "64 KiB chunk" big [];
  let r = Frame.create ~max_frame:1024 in
  let b = Bytes.of_string big in
  (match Frame.feed r b (Bytes.length b) with
  | [ Frame.Oversized 65000; Frame.Frame "ok" ] -> ()
  | evs -> Alcotest.failf "64 KiB chunk: [%s]" (show_events evs));
  Alcotest.(check int) "partial line pending" 535 (Frame.pending r);
  (* A length past the bytes given is refused, not read out of bounds. *)
  Alcotest.check_raises "len past the bytes" (Invalid_argument "Frame.feed") (fun () ->
      ignore (Frame.feed r (Bytes.of_string "ab\n") 4));
  Alcotest.check_raises "negative len" (Invalid_argument "Frame.feed") (fun () ->
      ignore (Frame.feed r (Bytes.of_string "ab\n") (-1)))

(* ---- Bqueue ---- *)

let test_bqueue () =
  let q = Bqueue.create ~capacity:3 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Bqueue.try_push q 3);
  Alcotest.(check bool) "push 4 rejected" false (Bqueue.try_push q 4);
  Alcotest.(check (list int)) "fifo batch" [ 1; 2 ] (Bqueue.pop_batch q ~max:2);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 5);
  Alcotest.(check (list int)) "rest" [ 3; 5 ] (Bqueue.pop_batch q ~max:10);
  Alcotest.(check (list int)) "empty" [] (Bqueue.pop_batch q ~max:10)

(* ---- Stats ---- *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.incr ~by:40 s "a";
  Alcotest.(check int) "sum" 42 (Stats.counter_value s "a");
  Alcotest.(check int) "absent" 0 (Stats.counter_value s "b")

let test_stats_quantiles () =
  let s = Stats.create () in
  Alcotest.(check bool) "empty" true (Stats.quantile_ms s "lat" 0.5 = None);
  (* 100 samples at ~2ms, 5 at ~80ms: p50 in the (1, 2.5] bucket, p99 in
     the (50, 100] bucket. *)
  for _ = 1 to 100 do
    Stats.observe_ms s "lat" 2.0
  done;
  for _ = 1 to 5 do
    Stats.observe_ms s "lat" 80.0
  done;
  let get q = Option.get (Stats.quantile_ms s "lat" q) in
  Alcotest.(check bool) "p50 bucket" true (get 0.5 > 1.0 && get 0.5 <= 2.5);
  Alcotest.(check bool) "p99 bucket" true (get 0.99 > 50.0 && get 0.99 <= 100.0);
  (* Snapshot carries both instrument kinds. *)
  Stats.incr s "c";
  let snap = Stats.snapshot s in
  (match Option.bind (Json.member "counters" snap) (Json.member "c") with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match Option.bind (Json.member "histograms" snap) (Json.member "lat") with
  | Some h ->
    Alcotest.(check (option int)) "count" (Some 105) (Option.bind (Json.member "count" h) Json.to_int_opt)
  | None -> Alcotest.fail "histogram missing from snapshot")

(* ---- Protocol ---- *)

let ok_req frame =
  match Protocol.parse_request frame with
  | Ok r -> r
  | Error (_, _, _, m) -> Alcotest.failf "unexpected parse failure: %s" m

let test_protocol_parse () =
  let r = ok_req "{\"id\":7,\"program\":\"cfg x (entry B0, exit B1)\"}" in
  Alcotest.(check bool) "id echoed" true (r.Protocol.id = Json.Int 7);
  (match r.Protocol.op with
  | Protocol.Run run ->
    Alcotest.(check string) "default algorithm" "lcm-edge" run.Protocol.algorithm;
    Alcotest.(check bool) "format sniffed as cfg" true (run.Protocol.format = "cfg")
  | _ -> Alcotest.fail "expected run op");
  let r = ok_req "{\"op\":\"run\",\"program\":\"function f() { return 1; }\"}" in
  (match r.Protocol.op with
  | Protocol.Run run ->
    Alcotest.(check bool) "format sniffed as miniimp" true (run.Protocol.format = "miniimp")
  | _ -> Alcotest.fail "expected run op");
  (match Protocol.parse_request "{\"op\":\"nope\"}" with
  | Error (_, _, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "unknown op must be bad_request");
  (match Protocol.parse_request "[1,2]" with
  | Error (_, _, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-object must be bad_request");
  (match Protocol.parse_request "{\"id\":9,\"op\":\"run\"}" with
  | Error (Json.Int 9, _, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "missing program must be bad_request with id");
  (* trace_id: parsed when present, recovered even on a parse failure. *)
  let r = ok_req "{\"id\":1,\"trace_id\":\"t-cli\",\"program\":\"cfg x (entry B0, exit B1)\"}" in
  Alcotest.(check (option string)) "trace_id parsed" (Some "t-cli") r.Protocol.trace_id;
  (match Protocol.parse_request "{\"id\":9,\"trace_id\":\"t-err\",\"op\":\"run\"}" with
  | Error (Json.Int 9, Some "t-err", Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "trace_id must be recovered on parse failure")

(* ---- Engine ---- *)

let diamond_text = Lcm_cfg.Cfg_text.to_string (Suites.graph (Option.get (Suites.find "diamond")))

let run_request ?(algorithm = "lcm-edge") program =
  {
    Protocol.id = Json.Int 1;
    op =
      Protocol.Run
        {
          Protocol.program;
          format = "cfg";
          func = None;
          algorithm;
          simplify = false;
          validate = false;
          retain = false;
        };
    deadline_ms = None;
    trace_id = None;
  }

let engine_exec ?lookup ?deadline req =
  let stats = Stats.create () in
  let cfg = Engine.default_config stats in
  let cfg = match lookup with Some l -> { cfg with Engine.lookup = l } | None -> cfg in
  let t = now () in
  Json.parse (Engine.execute cfg ~now ~arrival:t ~deadline req)

let field name j = Json.member name j
let str_field name j = Option.bind (field name j) Json.to_string_opt

let test_engine_matches_oneshot () =
  (* The serving pipeline must produce bit-identical programs to the
     one-shot path (`lcmopt run` prints Cfg.to_string of the same calls). *)
  List.iter
    (fun algorithm ->
      let resp = engine_exec (run_request ~algorithm diamond_text) in
      Alcotest.(check (option string)) (algorithm ^ " status") (Some "ok") (str_field "status" resp);
      let expected =
        Cfg.to_string ((Option.get (Registry.find algorithm)).Registry.run (Lcm_cfg.Cfg_text.parse diamond_text))
      in
      Alcotest.(check (option string)) (algorithm ^ " program") (Some expected) (str_field "program" resp))
    [ "lcm-edge"; "bcm-edge"; "morel-renvoise"; "identity" ]

(* Every run is one sequential solve, so a request for parallelism is
   capped at 1: the [workers] field is accepted and type-checked, and a
   request carrying it is answered [workers:1] with the program bytes of a
   request without it. *)
let test_engine_parallel_capped () =
  let frame extra =
    Printf.sprintf "{\"id\":1,\"format\":\"cfg\",\"program\":%s%s}"
      (Json.to_string (Json.String diamond_text))
      extra
  in
  let resp = engine_exec (ok_req (frame ",\"workers\":8")) in
  let plain = engine_exec (ok_req (frame "")) in
  Alcotest.(check (option string)) "status" (Some "ok") (str_field "status" resp);
  Alcotest.(check (option int)) "workers:8 answered workers:1" (Some 1)
    (Option.bind (field "workers" resp) Json.to_int_opt);
  Alcotest.(check (option int)) "no field answered workers:1" (Some 1)
    (Option.bind (field "workers" plain) Json.to_int_opt);
  Alcotest.(check (option string)) "same program bytes" (str_field "program" plain)
    (str_field "program" resp);
  match Protocol.parse_request (frame ",\"workers\":\"x\"") with
  | Error (Json.Int 1, _, Protocol.Bad_request, m) ->
    Alcotest.(check string) "type error" "field \"workers\" has the wrong type" m
  | _ -> Alcotest.fail "workers:\"x\" must be a bad_request"

let test_engine_errors () =
  let code resp = str_field "code" resp in
  let resp = engine_exec (run_request ~algorithm:"nope" diamond_text) in
  Alcotest.(check (option string)) "unknown algorithm" (Some "bad_request") (code resp);
  let resp = engine_exec (run_request "cfg broken (") in
  Alcotest.(check (option string)) "bad cfg" (Some "parse_error") (code resp);
  let resp =
    engine_exec
      {
        Protocol.id = Json.Null;
        op =
          Protocol.Run
            {
              Protocol.program = "function f( {";
              format = "miniimp";
              func = None;
              algorithm = "lcm-edge";
              simplify = false;
              validate = false;
              retain = false;
            };
        deadline_ms = None;
        trace_id = None;
      }
  in
  Alcotest.(check (option string)) "bad miniimp" (Some "parse_error") (code resp)

let test_engine_deadline () =
  (* Already-expired deadline: rejected before any phase runs. *)
  let resp = engine_exec ~deadline:(now () -. 1.) (run_request diamond_text) in
  Alcotest.(check (option string)) "expired" (Some "deadline_exceeded") (str_field "code" resp);
  (* A "non-terminating" request (long sleep) is cancelled cooperatively. *)
  let t0 = now () in
  let resp =
    engine_exec ~deadline:(t0 +. 0.05)
      { Protocol.id = Json.Null; op = Protocol.Sleep 60_000.; deadline_ms = None; trace_id = None }
  in
  let elapsed = now () -. t0 in
  Alcotest.(check (option string)) "cancelled" (Some "deadline_exceeded") (str_field "code" resp);
  Alcotest.(check bool) "cancelled promptly, not after 60s" true (elapsed < 5.)

let test_engine_panic_isolation () =
  (* An algorithm that dies must not take the daemon with it — the engine
     degrades through the tier ladder and serves the identity program,
     marked as such, rather than erroring. *)
  let boom = Lcm_core.Pass.v "boom" (fun _ _ -> failwith "boom") in
  let crash =
    Some
      {
        (Option.get (Registry.find "identity")) with
        Registry.pipeline = Lcm_core.Pass.Pipeline.v "boom" [ boom ];
        run = (fun _ -> failwith "boom");
      }
  in
  (* lcm-edge's sequential tier bypasses the registry (it needs the spec),
     so aim the crashing stub at an algorithm served through the entry. *)
  let resp =
    engine_exec ~lookup:(fun _ -> crash) (run_request ~algorithm:"morel-renvoise" diamond_text)
  in
  Alcotest.(check (option string)) "status" (Some "ok") (str_field "status" resp);
  Alcotest.(check (option string)) "degraded to identity" (Some "identity")
    (str_field "degraded" resp);
  let original = Cfg.to_string (Lcm_cfg.Cfg_text.parse diamond_text) in
  Alcotest.(check (option string)) "identity program" (Some original) (str_field "program" resp)

(* ---- Daemon end to end (pipes, daemon on its own domain) ---- *)

type harness = {
  w_in : Unix.file_descr;  (* we write requests here *)
  next_line : unit -> string option;  (* blocking reader of response lines *)
}

let make_line_reader fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec next () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None ->
      (match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        next ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ())
  in
  next

(* Run [f] against a fresh in-process daemon; returns [f]'s result and the
   response lines produced after [f] (it drains on end-of-input exactly as
   `lcmopt serve --stdio` does on a closed stdin). *)
let with_daemon ?(cfg = Daemon.default_config ()) f =
  let cfg = { cfg with Daemon.quiet = true; workers = 1; stats = Stats.create () } in
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let d = Domain.spawn (fun () -> Daemon.serve_fds cfg ~fd_in:req_r ~fd_out:resp_w) in
  let next_line = make_line_reader resp_r in
  let h = { w_in = req_w; next_line } in
  let result = f h in
  (try Unix.close req_w with Unix.Unix_error _ -> ());
  Domain.join d;
  Unix.close resp_w;
  let rec drain acc = match next_line () with Some l -> drain (l :: acc) | None -> List.rev acc in
  let rest = drain [] in
  Unix.close req_r;
  Unix.close resp_r;
  (result, rest)

let send h frame = Frame.write_frame h.w_in frame

let response_code line =
  let j = Json.parse line in
  match (str_field "status" j, str_field "code" j) with
  | Some "ok", _ -> "ok"
  | Some "error", Some c -> c
  | _ -> "???"

let test_daemon_end_to_end () =
  let (), responses =
    with_daemon (fun h ->
        send h (Printf.sprintf "{\"id\":1,\"op\":\"run\",\"program\":%s}"
                  (Json.to_string (Json.String diamond_text)));
        send h "this is not json";
        send h "{\"id\":2,\"op\":\"run\",\"algorithm\":\"nope\",\"program\":\"cfg x\"}";
        send h "{\"id\":3,\"op\":\"stats\"}")
  in
  let codes = List.map response_code responses in
  (* stats/ping bypass the queue, so the stats answer may precede the run
     answers; compare as multisets. *)
  Alcotest.(check (list string)) "codes" [ "bad_request"; "bad_request"; "ok"; "ok" ]
    (List.sort String.compare codes);
  (* The ok run response matches the one-shot transformation bit for bit. *)
  let run_resp =
    List.find_map
      (fun l ->
        let j = Json.parse l in
        if str_field "op" j = Some "run" && str_field "status" j = Some "ok" then Some j else None)
      responses
  in
  (match run_resp with
  | Some j ->
    let expected = Cfg.to_string (fst (Lcm_edge.transform (Lcm_cfg.Cfg_text.parse diamond_text))) in
    Alcotest.(check (option string)) "bit-identical program" (Some expected) (str_field "program" j)
  | None -> Alcotest.fail "no ok run response")

let test_daemon_oversized () =
  let cfg = { (Daemon.default_config ()) with Daemon.max_frame = 64 } in
  let (), responses =
    with_daemon ~cfg (fun h ->
        send h (String.make 200 'x');
        send h "{\"id\":1,\"op\":\"ping\"}")
  in
  Alcotest.(check (list string)) "oversized then survives" [ "ok"; "oversized" ]
    (List.sort String.compare (List.map response_code responses))

let test_daemon_overload () =
  (* Queue of 2, batches of 1: five instant sleeps written in one pipe
     write arrive in one read, so three of them must be rejected at
     admission with `overloaded`. *)
  let cfg = { (Daemon.default_config ()) with Daemon.queue_capacity = 2; batch_max = 1 } in
  let (), responses =
    with_daemon ~cfg (fun h ->
        let frames =
          List.init 5 (fun i ->
              Printf.sprintf "{\"id\":%d,\"op\":\"sleep\",\"duration_ms\":30}" i)
        in
        Frame.write_all h.w_in (String.concat "\n" frames ^ "\n"))
  in
  let codes = List.map response_code responses in
  Alcotest.(check int) "all answered" 5 (List.length codes);
  Alcotest.(check int) "two served" 2 (List.length (List.filter (( = ) "ok") codes));
  Alcotest.(check int) "three rejected" 3 (List.length (List.filter (( = ) "overloaded") codes))

let test_daemon_queued_deadline () =
  (* Item 2's deadline expires while item 1 occupies the (single-slot)
     dispatcher: it must come back deadline_exceeded, not run late. *)
  let cfg = { (Daemon.default_config ()) with Daemon.batch_max = 1 } in
  let (), responses =
    with_daemon ~cfg (fun h ->
        Frame.write_all h.w_in
          ("{\"id\":1,\"op\":\"sleep\",\"duration_ms\":300}\n"
          ^ "{\"id\":2,\"op\":\"sleep\",\"duration_ms\":5,\"deadline_ms\":50}\n"))
  in
  let code_of id =
    List.find_map
      (fun l ->
        let j = Json.parse l in
        if Option.bind (field "id" j) Json.to_int_opt = Some id then Some (response_code l) else None)
      responses
  in
  Alcotest.(check (option string)) "long sleep finished" (Some "ok") (code_of 1);
  Alcotest.(check (option string)) "queued sleep timed out" (Some "deadline_exceeded") (code_of 2)

let test_daemon_drain_mid_batch () =
  (* Three sleeps are admitted (the ping response proves admission
     happened), then shutdown is requested while the first is still
     running: all three must still be answered and the daemon must return
     even though its input is never closed by the drain itself. *)
  let cfg = { (Daemon.default_config ()) with Daemon.batch_max = 1 } in
  let pong, responses =
    with_daemon ~cfg (fun h ->
        let frames =
          List.init 3 (fun i ->
              Printf.sprintf "{\"id\":%d,\"op\":\"sleep\",\"duration_ms\":60}" i)
        in
        Frame.write_all h.w_in (String.concat "\n" frames ^ "\n{\"id\":99,\"op\":\"ping\"}\n");
        let pong = h.next_line () in
        Daemon.request_shutdown ();
        pong)
  in
  (match pong with
  | Some l -> Alcotest.(check string) "pong first" "ok" (response_code l)
  | None -> Alcotest.fail "no pong");
  Alcotest.(check (list string)) "all admitted sleeps answered" [ "ok"; "ok"; "ok" ]
    (List.map response_code responses)

let test_daemon_rejects_while_draining () =
  (* Admission while the flag is up answers shutting_down.  The daemon
     still has to see the frame, so raise the flag while input is open. *)
  let (), responses =
    with_daemon (fun h ->
        send h "{\"id\":1,\"op\":\"ping\"}";
        let _pong = h.next_line () in
        Daemon.request_shutdown ();
        (* Draining daemons stop reading; this frame may legitimately go
           unanswered.  Only assert that the daemon exits cleanly. *)
        (try send h "{\"id\":2,\"op\":\"sleep\",\"duration_ms\":10}" with Unix.Unix_error _ -> ()))
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) "clean codes only" true
        (List.mem (response_code l) [ "ok"; "shutting_down" ]))
    responses

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "frame chunking" `Quick test_frame_chunking;
    Alcotest.test_case "frame oversized recovery" `Quick test_frame_oversized;
    Alcotest.test_case "frame events match the byte-at-a-time reader" `Quick test_frame_matches_reference;
    Alcotest.test_case "bounded queue backpressure" `Quick test_bqueue;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "stats histogram quantiles" `Quick test_stats_quantiles;
    Alcotest.test_case "protocol parsing" `Quick test_protocol_parse;
    Alcotest.test_case "engine ≡ one-shot output" `Quick test_engine_matches_oneshot;
    Alcotest.test_case "engine parallel cap ≡ sequential" `Quick test_engine_parallel_capped;
    Alcotest.test_case "engine error taxonomy" `Quick test_engine_errors;
    Alcotest.test_case "engine deadlines (incl. pathological sleep)" `Quick test_engine_deadline;
    Alcotest.test_case "engine panic isolation" `Quick test_engine_panic_isolation;
    Alcotest.test_case "daemon end to end" `Quick test_daemon_end_to_end;
    Alcotest.test_case "daemon oversized frame" `Quick test_daemon_oversized;
    Alcotest.test_case "daemon overload backpressure" `Quick test_daemon_overload;
    Alcotest.test_case "daemon queued deadline" `Quick test_daemon_queued_deadline;
    Alcotest.test_case "daemon drain mid-batch" `Quick test_daemon_drain_mid_batch;
    Alcotest.test_case "daemon shutting_down admission" `Quick test_daemon_rejects_while_draining;
  ]
