(* Chaos and resilience: the deterministic fault registry, lock hygiene
   under injected exceptions, retry/backoff properties, identity degradation
   through the engine, EPIPE survival, and a crash-under-load soak of the
   whole daemon.  (Supervisor tests fork, so they live in a standalone
   executable under test/supervisor/.) *)

module Fault = Lcm_support.Fault
module Prng = Lcm_support.Prng
module Pool = Lcm_support.Pool
module Cfg = Lcm_cfg.Cfg
module Json = Lcm_server.Json
module Frame = Lcm_server.Frame
module Bqueue = Lcm_server.Bqueue
module Stats = Lcm_server.Stats
module Protocol = Lcm_server.Protocol
module Engine = Lcm_server.Engine
module Daemon = Lcm_server.Daemon
module Retry = Lcm_server.Retry
module Suites = Lcm_eval.Suites
module Trace = Lcm_obs.Trace

let now = Unix.gettimeofday

(* Every test leaves the process-wide registry disabled, whatever happens:
   a leaked configuration would poison unrelated suites. *)
let with_chaos ~seed spec f =
  Fault.configure ~seed spec;
  Fun.protect ~finally:Fault.disable f

let diamond_text = Lcm_cfg.Cfg_text.to_string (Suites.graph (Option.get (Suites.find "diamond")))

(* An input whose exit is unreachable: every interpreter sample runs out of
   fuel, which is the [fuel_exhausted] case by construction. *)
let spin_text =
  "cfg spin (entry B0, exit B1)\nB0:\n  x := a + b\n  goto B2\nB1:\n  halt\nB2:\n  y := a + b\n  goto B2\n"

(* ---- the fault registry ---- *)

let test_fault_determinism () =
  let pattern () =
    with_chaos ~seed:7 [ ("p.a", 0.3); ("p.b", 1.0); ("p.c", 0.0) ] (fun () ->
        List.init 200 (fun _ -> (Fault.fire "p.a", Fault.fire "p.b", Fault.fire "p.c")))
  in
  let p1 = pattern () and p2 = pattern () in
  Alcotest.(check bool) "same seed, same decisions" true (p1 = p2);
  List.iter
    (fun (_, b, c) ->
      Alcotest.(check bool) "rate 1 always fires" true b;
      Alcotest.(check bool) "rate 0 never fires" false c)
    p1;
  let fired = List.length (List.filter (fun (a, _, _) -> a) p1) in
  Alcotest.(check bool) "rate 0.3 fires sometimes, not always" true (fired > 0 && fired < 200);
  let other =
    with_chaos ~seed:8 [ ("p.a", 0.3) ] (fun () -> List.init 200 (fun _ -> Fault.fire "p.a"))
  in
  Alcotest.(check bool) "different seed, different decisions" false
    (List.map (fun (a, _, _) -> a) p1 = other)

let test_fault_spec_grammar () =
  (match Fault.parse_spec "engine.*=5%,sock.read=0.25" with
  | Ok entries ->
    Alcotest.(check int) "two entries" 2 (List.length entries);
    with_chaos ~seed:1 entries (fun () ->
        Alcotest.(check bool) "unmatched point never fires" false
          (List.exists (fun _ -> Fault.fire "bqueue.push") (List.init 50 Fun.id)))
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Fault.parse_spec "nonsense" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  with_chaos ~seed:3 [ ("engine.*", 1.0); ("engine.panic", 0.0) ] (fun () ->
      (* Later entries win on overlap. *)
      Alcotest.(check bool) "wildcard matches" true (Fault.fire "engine.slow");
      Alcotest.(check bool) "exact override wins" false (Fault.fire "engine.panic"))

(* A supervisor bumps LCM_CHAOS_EPOCH per restart so a forked child does
   not replay its predecessor's fault schedule; install_from_env must mix
   the epoch into the seed, deterministically. *)
let test_fault_epoch () =
  let pattern epoch =
    Unix.putenv Fault.env_var "7:p.a=0.3";
    Unix.putenv Fault.epoch_env_var (string_of_int epoch);
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv Fault.env_var "";
        Unix.putenv Fault.epoch_env_var "";
        Fault.disable ())
      (fun () ->
        match Fault.install_from_env () with
        | Error m -> Alcotest.failf "install failed: %s" m
        | Ok () -> List.init 200 (fun _ -> Fault.fire "p.a"))
  in
  Alcotest.(check bool) "same epoch, same decisions" true (pattern 3 = pattern 3);
  Alcotest.(check bool) "epoch 0 is the plain seed" true
    (pattern 0 = with_chaos ~seed:7 [ ("p.a", 0.3) ] (fun () -> List.init 200 (fun _ -> Fault.fire "p.a")));
  Alcotest.(check bool) "different epoch, different decisions" false (pattern 0 = pattern 1)

let test_fault_disabled_is_free () =
  Fault.disable ();
  Alcotest.(check bool) "disabled" false (Fault.enabled ());
  Alcotest.(check bool) "never fires" false (List.exists Fault.fire (List.init 100 (fun _ -> "x")));
  Alcotest.(check (list (triple string int int))) "no counts" [] (Fault.counts ())

let test_fault_counts () =
  with_chaos ~seed:5 [ ("hit", 1.0) ] (fun () ->
      for _ = 1 to 7 do
        ignore (Fault.fire "hit")
      done;
      (* Points with no matching spec entry stay on the single-atomic-load
         fast path and are deliberately not tracked. *)
      ignore (Fault.fire "probed-but-cold");
      match Fault.counts () with
      | [ ("hit", 7, 7) ] -> ()
      | other ->
        Alcotest.failf "unexpected counts: %s"
          (String.concat "; " (List.map (fun (p, o, f) -> Printf.sprintf "%s %d/%d" p f o) other)))

(* ---- lock hygiene: injected exceptions must not wedge any mutex ---- *)

let test_locks_survive_injection () =
  (* Fire the in-section injection points at 100%, catch the exceptions,
     then disable chaos and check the same structures still work — if any
     mutex were left locked, the clean calls would deadlock. *)
  let g = Suites.graph (Option.get (Suites.find "diamond")) in
  (* The graph is a copy that shares its source's warm adjacency snapshot;
     re-setting a terminator bumps the shape version, so the first
     [predecessors] below must run the locked snapshot build. *)
  Cfg.set_term g (Cfg.entry g) (Cfg.term g (Cfg.entry g));
  with_chaos ~seed:11 [ ("cfg.adjacency", 1.0); ("bqueue.push", 1.0); ("pool.task", 1.0) ]
    (fun () ->
      (match Cfg.predecessors g (Cfg.entry g) with
      | _ -> Alcotest.fail "cfg.adjacency injection did not fire"
      | exception Fault.Injected _ -> ());
      let q = Bqueue.create ~capacity:4 in
      (match Bqueue.try_push q 1 with
      | _ -> Alcotest.fail "bqueue.push injection did not fire"
      | exception Fault.Injected _ -> ());
      let pool = Pool.create 2 in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          match Pool.run pool [ (fun () -> ()); (fun () -> ()) ] with
          | () -> Alcotest.fail "pool.task injection did not fire"
          | exception Fault.Injected _ -> ()));
  (* Clean world: everything must still function — a mutex left locked by
     the injected exception would deadlock right here. *)
  ignore (Cfg.predecessors g (Cfg.entry g));
  let q = Bqueue.create ~capacity:4 in
  Alcotest.(check bool) "queue works after injection" true (Bqueue.try_push q 1);
  let pool = Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      Pool.run pool (List.init 4 (fun _ () -> Atomic.incr hits));
      Alcotest.(check int) "pool works after injection" 4 (Atomic.get hits))

let test_lock_hammer () =
  (* Many domains hammer one queue while pushes are randomly injected;
     the queue must stay consistent and usable throughout. *)
  with_chaos ~seed:13 [ ("bqueue.push", 0.2) ] (fun () ->
      let q = Bqueue.create ~capacity:64 in
      let pushed = Atomic.make 0 in
      let injected = Atomic.make 0 in
      let workers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 500 do
                  match Bqueue.try_push q () with
                  | true -> Atomic.incr pushed
                  | false -> ignore (Bqueue.pop_batch q ~max:16)
                  | exception Fault.Injected _ -> Atomic.incr injected
                done))
      in
      List.iter Domain.join workers;
      Alcotest.(check bool) "some pushes were injected" true (Atomic.get injected > 0);
      Alcotest.(check bool) "some pushes succeeded" true (Atomic.get pushed > 0);
      (* Drain: total popped (+ still queued) must equal successful pushes. *)
      let rec drain n = match Bqueue.pop_batch q ~max:64 with [] -> n | l -> drain (n + List.length l) in
      let drained0 = 2000 - Atomic.get injected - Atomic.get pushed in
      ignore drained0;
      let total = ref (drain 0) in
      Alcotest.(check bool) "queue drains and stays consistent" true (!total <= Atomic.get pushed))

(* ---- retry policy (QCheck) ---- *)

let policy_gen =
  QCheck2.Gen.(
    map4
      (fun retries base cap budget ->
        {
          Retry.retries;
          base_ms = float_of_int base;
          cap_ms = float_of_int (base + cap);
          budget_ms = (if budget = 0 then None else Some (float_of_int budget));
        })
      (int_bound 20) (int_range 1 500) (int_bound 10_000) (int_bound 10_000))

let prop_backoff_monotone =
  QCheck2.Test.make ~name:"retry: pre-jitter backoff is monotone and capped" ~count:200 policy_gen
    (fun p ->
      let prev = ref 0. in
      List.for_all
        (fun k ->
          let b = Retry.backoff_ms p ~attempt:k in
          let ok = b >= !prev && b <= p.Retry.cap_ms in
          prev := b;
          ok)
        (List.init 30 Fun.id))

let prop_jitter_bounded =
  QCheck2.Test.make ~name:"retry: delay jitter stays within [b/2, b]" ~count:200
    QCheck2.Gen.(pair policy_gen (int_bound 1_000_000))
    (fun (p, seed) ->
      let rng = Prng.of_int seed in
      List.for_all
        (fun k ->
          match Retry.next_delay_ms { p with Retry.budget_ms = None } rng ~attempt:k ~elapsed_ms:0. with
          | None -> k >= p.Retry.retries
          | Some d ->
            let b = Retry.backoff_ms p ~attempt:k in
            k < p.Retry.retries && d >= (b /. 2.) -. 1e-9 && d <= b +. 1e-9)
        (List.init 25 Fun.id))

let prop_budget_respected =
  QCheck2.Test.make ~name:"retry: the deadline budget bounds every delay" ~count:200
    QCheck2.Gen.(triple policy_gen (int_bound 1_000_000) (int_bound 12_000))
    (fun (p, seed, elapsed) ->
      let elapsed_ms = float_of_int elapsed in
      let rng = Prng.of_int seed in
      List.for_all
        (fun k ->
          match Retry.next_delay_ms p rng ~attempt:k ~elapsed_ms with
          | None -> true (* gave up: retries or budget exhausted — always allowed *)
          | Some d ->
            (match p.Retry.budget_ms with
            | None -> true
            | Some budget -> elapsed_ms < budget && d <= (budget -. elapsed_ms) +. 1e-9))
        (List.init 25 Fun.id))

let test_retryable_codes () =
  List.iter
    (fun (code, expect) ->
      Alcotest.(check bool) code expect (Retry.retryable_code code))
    [
      ("overloaded", true);
      ("shutting_down", true);
      ("bad_request", false);
      ("deadline_exceeded", false);
      ("fuel_exhausted", false);
      ("internal", false);
    ]

(* ---- engine degradation and validation ---- *)

let engine_exec req =
  let stats = Stats.create () in
  let t = now () in
  (Json.parse (Engine.execute (Engine.default_config stats) ~now ~arrival:t ~deadline:None req), stats)

let run_request ?(algorithm = "lcm-edge") ?(validate = false) program =
  {
    Protocol.id = Json.Int 1;
    op =
      Protocol.Run
        { Protocol.program; format = "cfg"; func = None; algorithm; simplify = false; validate; retain = false };
    deadline_ms = None;
    trace_id = None;
  }

let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

let test_degrade_to_identity () =
  (* The solve panics at its chaos boundary: the request is served the
     unchanged program, marked degraded. *)
  with_chaos ~seed:21 [ ("engine.panic", 1.0) ] (fun () ->
      let resp, stats = engine_exec (run_request diamond_text) in
      Alcotest.(check (option string)) "status" (Some "ok") (str_field "status" resp);
      Alcotest.(check (option string)) "degraded" (Some "identity") (str_field "degraded" resp);
      Alcotest.(check (option string)) "program is the original" (Some diamond_text)
        (str_field "program" resp);
      Alcotest.(check bool) "fallbacks counted" true
        (Stats.counter_value stats "engine.tier_fallbacks" >= 1);
      Alcotest.(check int) "degraded counted" 1 (Stats.counter_value stats "degraded.identity"))

let test_validate_flag () =
  let resp, stats = engine_exec (run_request ~validate:true diamond_text) in
  Alcotest.(check (option string)) "status" (Some "ok") (str_field "status" resp);
  Alcotest.(check (option bool)) "validated" (Some true)
    (Option.bind (Json.member "validated" resp) Json.to_bool_opt);
  Alcotest.(check int) "validated counted" 1 (Stats.counter_value stats "validated_total");
  (* Validation must not change the served program. *)
  let plain, _ = engine_exec (run_request diamond_text) in
  Alcotest.(check (option string)) "same program" (str_field "program" plain) (str_field "program" resp)

let test_validate_fuel_exhausted () =
  let resp, _ = engine_exec (run_request ~validate:true spin_text) in
  Alcotest.(check (option string)) "status" (Some "error") (str_field "status" resp);
  Alcotest.(check (option string)) "code" (Some "fuel_exhausted") (str_field "code" resp);
  (* Without explicit validation the same program serves fine. *)
  let resp, _ = engine_exec (run_request spin_text) in
  Alcotest.(check (option string)) "serves without validate" (Some "ok") (str_field "status" resp)

(* ---- stats persistence ---- *)

let test_stats_persistence_roundtrip () =
  let path = Filename.temp_file "lcm-stats" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = Stats.create () in
      Stats.incr ~by:3 a "alpha";
      Stats.observe_ms a "lat" 2.0;
      Stats.observe_ms a "lat" 200.0;
      Stats.save_file a path;
      let b = Stats.create () in
      Stats.incr ~by:2 b "alpha";
      Stats.load_file b path;
      Alcotest.(check int) "counters merge additively" 5 (Stats.counter_value b "alpha");
      (match Stats.quantile_ms b "lat" 0.5 with
      | Some _ -> ()
      | None -> Alcotest.fail "histogram not restored");
      (* Corrupt and missing files are ignored. *)
      let oc = open_out path in
      output_string oc "{not json";
      close_out oc;
      Stats.load_file b path;
      Stats.load_file b (path ^ ".does-not-exist");
      Alcotest.(check int) "corrupt load is a no-op" 5 (Stats.counter_value b "alpha"))

(* Supervisor tests live in test/supervisor/: [Supervisor.run] forks, and
   OCaml 5 forbids fork once any domain has been spawned, which earlier
   suites in this executable do.  The standalone runner forks first. *)

(* ---- daemon resilience ---- *)

(* In-process daemon over pipes (the `--stdio` shape).  The writer runs on
   its own domain while this one drains responses — at soak volumes both
   pipes fill, so a single-threaded write-then-read would deadlock against
   the daemon. *)
let with_daemon ?(cfg = Daemon.default_config ()) write_requests =
  let cfg = { cfg with Daemon.quiet = true; workers = 2; stats = Stats.create () } in
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let d = Domain.spawn (fun () -> Daemon.serve_fds cfg ~fd_in:req_r ~fd_out:resp_w) in
  let writer =
    Domain.spawn (fun () ->
        write_requests req_w;
        try Unix.close req_w with Unix.Unix_error _ -> ())
  in
  (* Close the response pipe's write end only when the daemon is done, so
     the drain below sees end-of-file; meanwhile this domain keeps
     draining, which is what lets the daemon make progress at all. *)
  let closer =
    Domain.spawn (fun () ->
        Domain.join writer;
        Domain.join d;
        Unix.close resp_w)
  in
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec slurp () =
    match Unix.read resp_r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  Domain.join closer;
  Unix.close req_r;
  Unix.close resp_r;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  List.filter (fun l -> l <> "") lines

let test_soak_under_chaos () =
  (* 1000 mixed requests against an in-process daemon with every soft
     fault point firing at 5%.  The daemon must answer every single frame
     (ok, typed error, or degraded), never die, and drain cleanly.
     Process-killing and socket-killing points stay out: in-process
     daemons refuse hard faults by construction, and the pipe conn does
     not own its fds, which is also asserted here by including the specs. *)
  let n = 1000 in
  with_chaos ~seed:2026
    [
      ("engine.slow", 0.01);
      ("engine.alloc", 0.05);
      ("engine.panic", 0.05);
      ("pool.task", 0.05);
      ("bqueue.push", 0.05);
      ("queue.reject", 0.05);
      ("cfg.adjacency", 0.02);
      ("pool.reading", 0.02);
      ("sock.read", 0.05);
      ("sock.write", 0.05);
      ("daemon.crash", 0.05);
    ]
    (fun () ->
      let program = Json.to_string (Json.String diamond_text) in
      let responses =
        with_daemon (fun w ->
            for i = 1 to n do
              let frame =
                match i mod 5 with
                | 0 -> Printf.sprintf "{\"id\":%d,\"op\":\"ping\"}" i
                | 4 -> Printf.sprintf "{\"id\":%d,\"op\":\"sleep\",\"duration_ms\":0}" i
                | 3 -> Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"program\":%s,\"validate\":true}" i program
                | _ -> Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"program\":%s}" i program
              in
              Frame.write_frame w frame
            done)
      in
      Alcotest.(check int) "every request answered" n (List.length responses);
      let ids = Hashtbl.create n in
      let degraded = ref 0 in
      let errors = ref 0 in
      List.iter
        (fun l ->
          let j = Json.parse l in
          (match Option.bind (Json.member "id" j) Json.to_int_opt with
          | Some id -> Hashtbl.replace ids id ()
          | None -> Alcotest.failf "response without id: %s" l);
          (match str_field "status" j with
          | Some "ok" -> if str_field "degraded" j <> None then incr degraded
          | Some "error" -> incr errors
          | _ -> Alcotest.failf "bad status in %s" l))
        responses;
      Alcotest.(check int) "all ids answered exactly once" n (Hashtbl.length ids);
      (* With panics at 5% some requests must have degraded — the proof
         that the fallback path, not luck, carried the load. *)
      Alcotest.(check bool) "some requests degraded" true (!degraded > 0))

let test_trace_id_survives_retry () =
  (* A queue.reject fault sheds the first admission; the client resends
     under the SAME trace_id.  The daemon's --trace-dir file for that id
     must then hold one well-formed span forest covering both attempts:
     the rejected admission and the full run.  (The restart-crossing half
     of this contract lives in test/supervisor/, which may fork.) *)
  let reject_seed =
    let rec go s =
      if s > 10_000 then Alcotest.fail "no reject-then-accept seed found"
      else begin
        Fault.configure ~seed:s [ ("queue.reject", 0.5) ];
        let first = Fault.fire "queue.reject" in
        let second = Fault.fire "queue.reject" in
        Fault.disable ();
        if first && not second then s else go (s + 1)
      end
    in
    go 1
  in
  let dir = Filename.temp_file "lcmd-trace" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let responses =
        with_chaos ~seed:reject_seed
          [ ("queue.reject", 0.5) ]
          (fun () ->
            with_daemon
              ~cfg:{ (Daemon.default_config ()) with Daemon.trace_dir = Some dir }
              (fun w ->
                let frame id =
                  Printf.sprintf "{\"id\":%d,\"trace_id\":\"soak-trace\",\"op\":\"run\",\"program\":%s}"
                    id
                    (Json.to_string (Json.String diamond_text))
                in
                (* Attempt 1 is shed by construction; attempt 2 runs. *)
                Frame.write_frame w (frame 1);
                Frame.write_frame w (frame 2)))
      in
      let statuses =
        List.map (fun l -> Option.get (str_field "status" (Json.parse l))) responses
      in
      Alcotest.(check (list string)) "reject then ok" [ "error"; "ok" ] statuses;
      List.iter
        (fun l ->
          Alcotest.(check (option string)) "trace id echoed on both" (Some "soak-trace")
            (str_field "trace_id" (Json.parse l)))
        responses;
      let path = Filename.concat dir "soak-trace.trace.json" in
      let content = In_channel.with_open_text path In_channel.input_all in
      let events =
        (* The per-trace file is a legal-but-unterminated Chrome array. *)
        match Json.parse (content ^ "null]") with
        | Json.List l -> List.filter (fun e -> e <> Json.Null) l
        | _ -> Alcotest.fail "trace file is not a JSON array"
      in
      let arg name e =
        Json.member name (Option.value (Json.member "args" e) ~default:Json.Null)
      in
      let names =
        List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt) events
      in
      let ids = List.filter_map (fun e -> Option.bind (arg "span_id" e) Json.to_int_opt) events in
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "one trace id in the file" (Some "soak-trace")
            (Option.bind (arg "trace_id" e) Json.to_string_opt);
          match Option.bind (arg "parent_id" e) Json.to_int_opt with
          | Some p -> Alcotest.(check bool) "parents resolve" true (p = -1 || List.mem p ids)
          | None -> Alcotest.fail "event without parent_id")
        events;
      Alcotest.(check int) "one admission span per attempt" 2
        (List.length (List.filter (String.equal "daemon.admission") names));
      Alcotest.(check bool) "the accepted attempt ran end to end" true
        (List.mem "request" names && List.mem "lcm.latest" names))

let test_daemon_survives_epipe () =
  (* A socket client that sends a request and slams the connection shut:
     the daemon's response write hits EPIPE/ECONNRESET and must neither
     kill the daemon nor poison other connections. *)
  let path = Filename.temp_file "lcmd-epipe" ".sock" in
  Sys.remove path;
  let cfg = { (Daemon.default_config ()) with Daemon.quiet = true; workers = 1; stats = Stats.create () } in
  let d = Domain.spawn (fun () -> Daemon.serve_unix_socket cfg ~path) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.request_shutdown ();
      Domain.join d)
    (fun () ->
      let rec connect tries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> fd
        | exception Unix.Unix_error _ when tries > 0 ->
          Unix.close fd;
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      (* Rude client: request then immediate close, several times over. *)
      for _ = 1 to 5 do
        let fd = connect 100 in
        Frame.write_frame fd
          (Printf.sprintf "{\"id\":1,\"op\":\"run\",\"program\":%s}" (Json.to_string (Json.String diamond_text)));
        Unix.close fd
      done;
      Unix.sleepf 0.2;
      (* Polite client: the daemon must still answer. *)
      let fd = connect 100 in
      Frame.write_frame fd "{\"id\":2,\"op\":\"ping\"}";
      let buf = Bytes.create 4096 in
      let rec read_line acc =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> acc
        | n ->
          let acc = acc ^ Bytes.sub_string buf 0 n in
          if String.contains acc '\n' then acc else read_line acc
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line acc
      in
      let resp = read_line "" in
      Unix.close fd;
      let j = Json.parse (List.hd (String.split_on_char '\n' resp)) in
      Alcotest.(check (option string)) "daemon alive after EPIPE storms" (Some "ok")
        (str_field "status" j))

let suite =
  [
    Alcotest.test_case "fault registry determinism" `Quick test_fault_determinism;
    Alcotest.test_case "fault spec grammar" `Quick test_fault_spec_grammar;
    Alcotest.test_case "fault epoch perturbation" `Quick test_fault_epoch;
    Alcotest.test_case "fault disabled is free" `Quick test_fault_disabled_is_free;
    Alcotest.test_case "fault counts" `Quick test_fault_counts;
    Alcotest.test_case "locks survive injection" `Quick test_locks_survive_injection;
    Alcotest.test_case "lock hammer under injection" `Quick test_lock_hammer;
    QCheck_alcotest.to_alcotest prop_backoff_monotone;
    QCheck_alcotest.to_alcotest prop_jitter_bounded;
    QCheck_alcotest.to_alcotest prop_budget_respected;
    Alcotest.test_case "retryable codes" `Quick test_retryable_codes;
    Alcotest.test_case "degrade to identity" `Quick test_degrade_to_identity;
    Alcotest.test_case "validate flag" `Quick test_validate_flag;
    Alcotest.test_case "validate fuel exhaustion" `Quick test_validate_fuel_exhausted;
    Alcotest.test_case "stats persistence roundtrip" `Quick test_stats_persistence_roundtrip;
    Alcotest.test_case "soak: 1k requests under 5% chaos" `Quick test_soak_under_chaos;
    Alcotest.test_case "trace_id survives a client retry" `Quick test_trace_id_survives_retry;
    Alcotest.test_case "daemon survives EPIPE" `Quick test_daemon_survives_epipe;
  ]
