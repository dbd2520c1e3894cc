(* Process-level tests of the shard router: a real `lcmopt serve --shards N`
   fleet driven over stdio, with workers killed out from under it.

   What must hold when a worker dies mid-request:
   - the client still gets an ok response (the router replays the frame,
     same wire id and trace_id, on the ring successor);
   - the response is bit-identical to the one the dead worker would have
     produced (routing is content-addressed, workers are deterministic);
   - the dead worker is respawned and the restart shows up in stats;
   - retained handles die with their worker: a delta on them reports
     unknown_handle and a fresh retain starts over. *)

module Json = Lcm_server.Json
module Frame = Lcm_server.Frame
module Cfg = Lcm_cfg.Cfg
module Gencfg = Lcm_eval.Gencfg
module Prng = Lcm_support.Prng

let resolve_exe () =
  match Sys.getenv_opt "LCMOPT_EXE" with
  | Some p -> p
  | None ->
    let d = Filename.dirname Sys.executable_name in
    Filename.concat (Filename.dirname (Filename.dirname d)) "bin/lcmopt.exe"

type conn = {
  pid : int;
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  reader : Frame.reader;
  chunk : Bytes.t;
  mutable inbox : Json.t list;
}

let spawn args =
  let exe = resolve_exe () in
  if not (Sys.file_exists exe) then Alcotest.failf "daemon binary not found at %s" exe;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: [ "serve"; "--stdio"; "--quiet" ]) @ args))
      req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  {
    pid;
    req_w;
    resp_r;
    reader = Frame.create ~max_frame:(1 lsl 22);
    chunk = Bytes.create 65536;
    inbox = [];
  }

let stop conn =
  (try Unix.close conn.req_w with Unix.Unix_error _ -> ());
  (try Unix.close conn.resp_r with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] conn.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let send conn line =
  let line = line ^ "\n" in
  let n = String.length line in
  let k = ref 0 in
  while !k < n do
    k := !k + Unix.write_substring conn.req_w line !k (n - !k)
  done

(* First queued-or-arriving frame satisfying [pred] within [timeout_s];
   non-matching frames stay queued in arrival order. *)
let recv_until ?(timeout_s = 15.) conn pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let take () =
    let rec split acc = function
      | [] -> None
      | j :: rest when pred j ->
        conn.inbox <- List.rev_append acc rest;
        Some j
      | j :: rest -> split (j :: acc) rest
    in
    split [] conn.inbox
  in
  let rec go () =
    match take () with
    | Some j -> Some j
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else (
        match Unix.select [ conn.resp_r ] [] [] left with
        | [], _, _ -> None
        | _ -> (
          match Unix.read conn.resp_r conn.chunk 0 (Bytes.length conn.chunk) with
          | 0 -> None
          | n ->
            conn.inbox <-
              conn.inbox
              @ List.filter_map
                  (function Frame.Frame f -> Some (Json.parse f) | Frame.Oversized _ -> None)
                  (Frame.feed conn.reader conn.chunk n);
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let sfield j n = Option.bind (Json.member n j) Json.to_string_opt
let ifield j n = Option.bind (Json.member n j) Json.to_int_opt
let has_id id j = ifield j "id" = Some id

let roundtrip ?timeout_s conn id frame =
  send conn frame;
  match recv_until ?timeout_s conn (has_id id) with
  | Some j -> j
  | None -> Alcotest.failf "no response to request %d" id

let run_frame ?(retain = false) ?trace ~id text =
  Printf.sprintf "{\"id\":%d%s,\"op\":\"run\",\"format\":\"cfg\"%s,\"program\":%s}" id
    (match trace with Some t -> Printf.sprintf ",\"trace_id\":%S" t | None -> "")
    (if retain then ",\"retain\":true" else "")
    (Json.to_string (Json.String text))

let fetch_stats conn id =
  let j = roundtrip conn id (Printf.sprintf "{\"id\":%d,\"op\":\"stats\"}" id) in
  Option.value (Json.member "stats" j) ~default:Json.Null

let counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some v -> Option.value (Json.to_int_opt v) ~default:0
  | None -> 0

(* fleet rows from the stats "shard" object: (worker, pid, alive, restarts) *)
let fleet stats =
  match Option.bind (Json.member "shard" stats) (Json.member "fleet") with
  | Some (Json.List rows) ->
    List.filter_map
      (fun r ->
        match (ifield r "worker", ifield r "pid") with
        | Some w, Some p ->
          Some
            ( w,
              p,
              Option.value (Option.bind (Json.member "alive" r) Json.to_bool_opt) ~default:false,
              Option.value (ifield r "restarts") ~default:0 )
        | _ -> None)
      rows
  | _ -> []

let pid_of_worker stats w =
  match List.find_opt (fun (w', _, _, _) -> w' = w) (fleet stats) with
  | Some (_, p, _, _) -> p
  | None -> Alcotest.failf "worker %d not in the stats fleet" w

let gen_program seed blocks =
  Cfg.to_string
    (Gencfg.random_cfg
       ~params:{ Gencfg.default_cfg_params with Gencfg.num_blocks = blocks }
       (Prng.of_int seed))

let tiny =
  "cfg t (entry B0, exit B1)\nB0:\n  goto B2\nB1:\n  halt\nB2:\n  x := a + b\n  print x\n  if p \
   then B2 else B1\n"

(* ---- the happy path through the router ---- *)

let test_router_smoke () =
  let conn = spawn [ "--shards"; "2"; "--cache"; "64"; "--workers"; "1" ] in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  (* run: served by some worker, identified in the response *)
  let r1 = roundtrip conn 1 (run_frame ~id:1 tiny) in
  Alcotest.(check (option string)) "ok" (Some "ok") (sfield r1 "status");
  let w = match ifield r1 "worker" with Some w -> w | None -> Alcotest.fail "no worker field" in
  Alcotest.(check bool) "worker in range" true (w = 0 || w = 1);
  (* identical content again: answered by the router's result cache *)
  let r2 = roundtrip conn 2 (run_frame ~id:2 tiny) in
  Alcotest.(check (option string)) "cache hit" (Some "hit") (sfield r2 "cache");
  Alcotest.(check (option string)) "hit is bit-identical" (sfield r1 "program") (sfield r2 "program");
  (* [workers] does not shape the response (every run is one sequential
     solve, answered workers:1), so it is not part of the cache key *)
  let with_workers =
    let f = run_frame ~id:20 tiny in
    String.sub f 0 (String.length f - 1) ^ ",\"workers\":8}"
  in
  let r2w = roundtrip conn 20 with_workers in
  Alcotest.(check (option string)) "workers-only difference is a cache hit" (Some "hit")
    (sfield r2w "cache");
  Alcotest.(check (option int)) "answered workers:1" (Some 1) (ifield r2w "workers");
  Alcotest.(check (option string)) "same program" (sfield r1 "program") (sfield r2w "program");
  (* retain + delta: handle names the serving worker, delta re-solves *)
  let r3 = roundtrip conn 3 (run_frame ~retain:true ~id:3 tiny) in
  let handle = match sfield r3 "handle" with Some h -> h | None -> Alcotest.fail "no handle" in
  let r4 =
    roundtrip conn 4
      (Printf.sprintf
         "{\"id\":4,\"op\":\"delta\",\"handle\":%S,\"edits\":[{\"block\":\"B2\",\"instrs\":[\"x := \
          a + b\",\"print x\",\"z := a + b\"]}]}"
         handle)
  in
  Alcotest.(check (option string)) "delta ok" (Some "ok") (sfield r4 "status");
  let solve = Option.value (Json.member "solve" r4) ~default:Json.Null in
  Alcotest.(check (option string)) "incremental path" (Some "incremental") (sfield solve "mode");
  (* stats: merged counters plus the fleet *)
  let stats = fetch_stats conn 5 in
  let rows = fleet stats in
  Alcotest.(check int) "two workers" 2 (List.length rows);
  List.iter (fun (_, _, alive, _) -> Alcotest.(check bool) "alive" true alive) rows;
  Alcotest.(check bool) "cache hit counted" true (counter stats "cache.hits_total" >= 1);
  (* the repeat texts above must have recalled their canonical digest
     from the raw-text memo instead of reparsing *)
  Alcotest.(check bool)
    "digest memo hit counted" true
    (counter stats "shard.digest_memo_hits_total" >= 1)

(* ---- kill -9 under load ---- *)

let test_crash_transparency () =
  let conn = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1" ] in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  (* The fleet heals: every killed worker is respawned.  Returns the
     stats that first show both workers alive. *)
  let wait_healed first_id =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go id =
      let stats = fetch_stats conn id in
      let rows = fleet stats in
      if List.length rows = 2 && List.for_all (fun (_, _, a, _) -> a) rows then stats
      else if Unix.gettimeofday () > deadline then Alcotest.fail "fleet never healed"
      else begin
        Unix.sleepf 0.1;
        go (id + 1)
      end
    in
    go first_id
  in
  (* Repeat kill-under-load rounds until one provably interrupts an
     in-flight request (shard.retries_total advances); each round is
     correct either way, the loop only de-flakes the timing.  A round
     starts only once the previous round's victim is back: with it still
     dead, the probe lands on its sibling, and killing that one too leaves
     no worker to replay on. *)
  let rec round i =
    if i > 6 then Alcotest.fail "no round interrupted an in-flight request";
    if i > 1 then ignore (wait_healed (1000 * i));
    let text = gen_program (100 + i) 200 in
    let base = i * 10 in
    let r1 = roundtrip conn base (run_frame ~id:base text) in
    Alcotest.(check (option string)) "probe ok" (Some "ok") (sfield r1 "status");
    let w = match ifield r1 "worker" with Some w -> w | None -> Alcotest.fail "no worker" in
    let prog = match sfield r1 "program" with Some p -> p | None -> Alcotest.fail "no program" in
    let victim = pid_of_worker (fetch_stats conn (base + 1)) w in
    let retries_before = counter (fetch_stats conn (base + 2)) "shard.retries_total" in
    (* same content routes to the same worker; kill it mid-solve *)
    let trace = Printf.sprintf "crash-%d" i in
    send conn (run_frame ~trace ~id:(base + 3) text);
    Unix.kill victim Sys.sigkill;
    (match recv_until conn (has_id (base + 3)) with
    | None -> Alcotest.fail "request lost with the worker"
    | Some r2 ->
      Alcotest.(check (option string)) "still ok" (Some "ok") (sfield r2 "status");
      Alcotest.(check (option string)) "trace id survives the retry" (Some trace)
        (sfield r2 "trace_id");
      Alcotest.(check (option string)) "bit-identical across workers" (Some prog)
        (sfield r2 "program"));
    let retries_after = counter (fetch_stats conn (base + 4)) "shard.retries_total" in
    if retries_after <= retries_before then round (i + 1)
  in
  round 1;
  let stats = wait_healed 10_000 in
  Alcotest.(check bool) "restart recorded" true (counter stats "shard.worker_restarts_total" >= 1)

(* ---- retained handles die with their worker ---- *)

let test_handle_dies_with_worker () =
  let conn = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1" ] in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  let r1 = roundtrip conn 1 (run_frame ~retain:true ~id:1 tiny) in
  let handle = match sfield r1 "handle" with Some h -> h | None -> Alcotest.fail "no handle" in
  let w = match ifield r1 "worker" with Some w -> w | None -> Alcotest.fail "no worker" in
  Unix.kill (pid_of_worker (fetch_stats conn 2) w) Sys.sigkill;
  let delta id =
    roundtrip conn id
      (Printf.sprintf
         "{\"id\":%d,\"op\":\"delta\",\"handle\":%S,\"edits\":[{\"block\":\"B2\",\"instrs\":[\"x \
          := a + b\",\"print x\"]}]}"
         id handle)
  in
  (* Whether the router notices the death before, during, or after the
     forward, the delta must come back unknown_handle — never hang, never
     silently succeed against stale state. *)
  let r2 = delta 3 in
  Alcotest.(check (option string)) "error" (Some "error") (sfield r2 "status");
  Alcotest.(check (option string)) "unknown_handle" (Some "unknown_handle") (sfield r2 "code");
  (* recovery: a fresh retain mints a usable handle again *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec re_retain id =
    let r = roundtrip conn id (run_frame ~retain:true ~id tiny) in
    if sfield r "status" = Some "ok" then r
    else if Unix.gettimeofday () > deadline then Alcotest.failf "retain never recovered"
    else begin
      Unix.sleepf 0.1;
      re_retain (id + 1)
    end
  in
  let r3 = re_retain 10 in
  let handle2 = match sfield r3 "handle" with Some h -> h | None -> Alcotest.fail "no handle" in
  let r4 =
    roundtrip conn 100
      (Printf.sprintf
         "{\"id\":100,\"op\":\"delta\",\"handle\":%S,\"edits\":[{\"block\":\"B2\",\"instrs\":[\"x \
          := a + b\",\"print x\",\"z := a + b\"]}]}"
         handle2)
  in
  Alcotest.(check (option string)) "fresh handle serves deltas" (Some "ok") (sfield r4 "status")

let () =
  Alcotest.run "lcm-shard"
    [
      ( "shard",
        [
          Alcotest.test_case "router smoke: route, cache, retain, delta, stats" `Quick
            test_router_smoke;
          Alcotest.test_case "kill -9 under load: retried, bit-identical, healed" `Quick
            test_crash_transparency;
          Alcotest.test_case "handles die with their worker" `Quick test_handle_dies_with_worker;
        ] );
    ]
