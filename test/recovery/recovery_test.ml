(* Process-level tests of crash-durable handles: a real `lcmopt serve
   --shards N --state-dir DIR` fleet, with a worker SIGKILLed while a
   stream of deltas against its retained handles is in flight.

   What must hold:
   - zero [unknown_handle]: every delta in the stream is answered ok —
     frames caught mid-crash are parked and replayed onto the respawned
     worker after it rebuilds its handles from the journal;
   - the rebuilt state is exact: post-recovery probe deltas produce
     programs bit-identical to a reference fleet that saw the same
     history without any crash;
   - the first post-recovery response per handle carries
     [recovered:true];
   - a request whose processing kills two workers is quarantined with
     the typed [poisoned_request] error instead of being fed to a third;
   - a graceful restart of the whole fleet (same --state-dir) also
     brings every handle back. *)

module Json = Lcm_server.Json
module Frame = Lcm_server.Frame

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

let spawn ?env args =
  let exe = resolve_exe () in
  if not (Sys.file_exists exe) then Alcotest.failf "daemon binary not found at %s" exe;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: [ "serve"; "--stdio"; "--quiet" ]) @ args) in
  let pid =
    match env with
    | None -> Unix.create_process exe argv req_r resp_w Unix.stderr
    | Some extra ->
      Unix.create_process_env exe argv
        (Array.append (Unix.environment ()) extra)
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

let recv_until ?(timeout_s = 30.) conn pred =
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
let bfield j n = Option.bind (Json.member n j) Json.to_bool_opt
let has_id id j = ifield j "id" = Some id

let roundtrip ?timeout_s conn id frame =
  send conn frame;
  match recv_until ?timeout_s conn (has_id id) with
  | Some j -> j
  | None -> Alcotest.failf "no response to request %d" id

let run_frame ?(retain = false) ~id text =
  Printf.sprintf "{\"id\":%d,\"op\":\"run\",\"format\":\"cfg\"%s,\"program\":%s}" id
    (if retain then ",\"retain\":true" else "")
    (Json.to_string (Json.String text))

let delta_frame ?(validate = false) ~id ~handle instrs =
  Printf.sprintf "{\"id\":%d,\"op\":\"delta\",\"handle\":%S%s,\"edits\":[{\"block\":\"B2\",\"instrs\":[%s]}]}"
    id handle
    (if validate then ",\"validate\":true" else "")
    (String.concat "," (List.map (fun i -> Json.to_string (Json.String i)) instrs))

let fetch_stats conn id =
  let j = roundtrip conn id (Printf.sprintf "{\"id\":%d,\"op\":\"stats\"}" id) in
  Option.value (Json.member "stats" j) ~default:Json.Null

let counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some v -> Option.value (Json.to_int_opt v) ~default:0
  | None -> 0

let pid_of_worker stats w =
  match Option.bind (Json.member "shard" stats) (Json.member "fleet") with
  | Some (Json.List rows) -> (
    match List.find_opt (fun r -> ifield r "worker" = Some w) rows with
    | Some r -> (
      match ifield r "pid" with
      | Some p -> p
      | None -> Alcotest.failf "worker %d has no pid" w)
    | None -> Alcotest.failf "worker %d not in the stats fleet" w)
  | _ -> Alcotest.fail "no fleet in stats"

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let tiny =
  "cfg t (entry B0, exit B1)\nB0:\n  goto B2\nB1:\n  halt\nB2:\n  x := a + b\n  print x\n  if p \
   then B2 else B1\n"

(* A delta history for handle [k], step [i]: Set_instrs only, so
   at-least-once replay after a crash is idempotent and the final state
   is a pure function of the (ordered) history. *)
let step_instrs k i =
  [
    Printf.sprintf "x := a + b";
    Printf.sprintf "h%d_%d := a + b" k i;
    "print x";
  ]

let expect_ok what j =
  (match sfield j "status" with
  | Some "ok" -> ()
  | s ->
    Alcotest.failf "%s: status %s, code %s: %s" what
      (Option.value ~default:"?" s)
      (Option.value ~default:"?" (sfield j "code"))
      (Option.value ~default:"" (sfield j "message")));
  j

(* Retain [n] copies of the same program: identical content routes to one
   worker, so that worker ends up holding all [n] handles. *)
let retain_fleet conn ~n =
  List.init n (fun k ->
      let j = expect_ok "retain" (roundtrip conn (k + 1) (run_frame ~retain:true ~id:(k + 1) tiny)) in
      match (sfield j "handle", ifield j "worker") with
      | Some h, Some w -> (h, w)
      | _ -> Alcotest.fail "retain response missing handle/worker")

(* ---- kill -9 mid-delta-stream ---- *)

let test_kill9_mid_stream () =
  let state_dir = fresh_dir "lcm-rec-state" in
  let ref_dir = fresh_dir "lcm-rec-ref" in
  Fun.protect ~finally:(fun () -> rm_rf state_dir; rm_rf ref_dir) @@ fun () ->
  let conn = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1"; "--state-dir"; state_dir ] in
  let reference = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1"; "--state-dir"; ref_dir ] in
  Fun.protect ~finally:(fun () -> stop conn; stop reference) @@ fun () ->
  let n = 8 in
  let handles = retain_fleet conn ~n in
  let ref_handles = retain_fleet reference ~n in
  Alcotest.(check bool) "deterministic handle minting" true (handles = ref_handles);
  let victim_worker = snd (List.hd handles) in
  List.iter
    (fun (_, w) -> Alcotest.(check int) "all handles on one worker" victim_worker w)
    handles;
  (* Warm-up delta on each handle, so recovery has patch records to
     replay, not just bases. *)
  List.iteri
    (fun k (h, _) ->
      ignore (expect_ok "warm-up" (roundtrip conn (100 + k) (delta_frame ~id:(100 + k) ~handle:h (step_instrs k 0))));
      ignore
        (expect_ok "ref warm-up"
           (roundtrip reference (100 + k) (delta_frame ~id:(100 + k) ~handle:h (step_instrs k 0)))))
    handles;
  let victim_pid = pid_of_worker (fetch_stats conn 90) victim_worker in
  (* Keep the victim busy so the stream is provably in flight when it
     dies: sleeps are dealt round-robin over the live fleet, so of two
     back-to-back sleeps one lands on each worker, and the victim runs its
     sleep before any delta queued behind it. *)
  send conn "{\"id\":91,\"op\":\"sleep\",\"duration_ms\":300}";
  send conn "{\"id\":92,\"op\":\"sleep\",\"duration_ms\":300}";
  (* The stream: 3 deltas per handle, all written before we read any
     response, then SIGKILL the worker holding every handle. *)
  let ids = ref [] in
  List.iteri
    (fun k (h, _) ->
      for i = 1 to 3 do
        let id = 1000 + (k * 10) + i in
        ids := id :: !ids;
        send conn (delta_frame ~id ~handle:h (step_instrs k i))
      done)
    handles;
  (* The router answers ping inline, in arrival order: once it answers,
     every frame above has been forwarded and the victim is still asleep. *)
  ignore (expect_ok "ping" (roundtrip conn 93 "{\"id\":93,\"op\":\"ping\"}"));
  Unix.kill victim_pid Sys.sigkill;
  List.iter
    (fun id ->
      match recv_until conn (has_id id) with
      | None -> Alcotest.failf "sleep %d lost in the crash" id
      | Some j -> ignore (expect_ok (Printf.sprintf "sleep %d after kill -9" id) j))
    [ 91; 92 ];
  (* Every delta must be answered ok — zero unknown_handle. *)
  List.iter
    (fun id ->
      match recv_until conn (has_id id) with
      | None -> Alcotest.failf "delta %d lost in the crash" id
      | Some j -> ignore (expect_ok (Printf.sprintf "delta %d after kill -9" id) j))
    (List.rev !ids);
  (* The reference fleet sees the same stream, crash-free and in the
     same per-handle order. *)
  List.iteri
    (fun k (h, _) ->
      for i = 1 to 3 do
        let id = 1000 + (k * 10) + i in
        ignore (expect_ok "ref delta" (roundtrip reference id (delta_frame ~id ~handle:h (step_instrs k i))))
      done)
    handles;
  (* Probe: every handle's post-recovery state is bit-identical to the
     never-crashed fleet's. *)
  List.iteri
    (fun k (h, _) ->
      let id = 2000 + k in
      let a = expect_ok "probe" (roundtrip conn id (delta_frame ~id ~handle:h (step_instrs k 99))) in
      let b =
        expect_ok "ref probe" (roundtrip reference id (delta_frame ~id ~handle:h (step_instrs k 99)))
      in
      Alcotest.(check (option string))
        (Printf.sprintf "handle %s bit-identical after recovery" h)
        (sfield b "program") (sfield a "program"))
    handles;
  (* A validating delta still passes on the rebuilt state. *)
  let h0 = fst (List.hd handles) in
  let v = expect_ok "validate" (roundtrip conn 3000 (delta_frame ~validate:true ~id:3000 ~handle:h0 (step_instrs 0 100))) in
  Alcotest.(check (option bool)) "validated" (Some true) (bfield v "validated");
  (* The books: handles were recovered from the journal, frames were
     parked and replayed, nothing was quarantined. *)
  let stats = fetch_stats conn 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "journal.recovered_handles_total >= %d" n)
    true
    (counter stats "journal.recovered_handles_total" >= n);
  (* Every delta was in flight at the kill and is replayed, and so is the
     victim's sleep (onto its sibling). *)
  Alcotest.(check bool) "replays counted" true
    (counter stats "shard.replays_total" >= List.length !ids + 1);
  Alcotest.(check int) "no unknown_handle" 0 (counter stats "errors.unknown_handle");
  Alcotest.(check int) "no poisoned requests" 0 (counter stats "shard.poisoned_total")

(* ---- the first post-recovery response announces the rebuild ---- *)

let test_recovered_flag () =
  let state_dir = fresh_dir "lcm-rec-flag" in
  Fun.protect ~finally:(fun () -> rm_rf state_dir) @@ fun () ->
  let conn = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1"; "--state-dir"; state_dir ] in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  let j = expect_ok "retain" (roundtrip conn 1 (run_frame ~retain:true ~id:1 tiny)) in
  let h = Option.get (sfield j "handle") in
  let w = Option.get (ifield j "worker") in
  let d1 = expect_ok "live delta" (roundtrip conn 2 (delta_frame ~id:2 ~handle:h (step_instrs 0 1))) in
  Alcotest.(check (option bool)) "no recovered flag while live" None (bfield d1 "recovered");
  Unix.kill (pid_of_worker (fetch_stats conn 3) w) Sys.sigkill;
  (* The next delta is parked through the respawn and answered from the
     rebuilt handle. *)
  let d2 = expect_ok "post-crash delta" (roundtrip conn 4 (delta_frame ~id:4 ~handle:h (step_instrs 0 2))) in
  Alcotest.(check (option bool)) "first response flags the rebuild" (Some true) (bfield d2 "recovered");
  let d3 = expect_ok "next delta" (roundtrip conn 5 (delta_frame ~id:5 ~handle:h (step_instrs 0 3))) in
  Alcotest.(check (option bool)) "flag clears after one response" None (bfield d3 "recovered")

(* ---- poison quarantine ---- *)

let test_poisoned_request () =
  (* Every frame a worker processes crashes it (daemon.crash at 100%):
     the run kills its first worker, the replay kills the ring successor,
     and the third worker must never see the frame — the client gets the
     typed poisoned_request error instead. *)
  let conn =
    spawn
      ~env:[| "LCM_CHAOS=7:daemon.crash=1" |]
      [ "--shards"; "3"; "--cache"; "0"; "--workers"; "1" ]
  in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  let j = roundtrip conn 1 (run_frame ~id:1 tiny) in
  Alcotest.(check (option string)) "status" (Some "error") (sfield j "status");
  Alcotest.(check (option string)) "typed error" (Some "poisoned_request") (sfield j "code");
  (* Exactly one replay hop — death one replayed it onto the successor,
     death two quarantined it; no third worker ever saw the frame.
     (Stats is aggregated by the router, so it answers even while the
     workers crash-loop.) *)
  let stats = fetch_stats conn 2 in
  Alcotest.(check int) "poisoned counted" 1 (counter stats "shard.poisoned_total");
  Alcotest.(check int) "exactly one replay hop" 1 (counter stats "shard.replays_total")

(* ---- graceful restart durability ---- *)

let test_graceful_restart () =
  let state_dir = fresh_dir "lcm-rec-grace" in
  Fun.protect ~finally:(fun () -> rm_rf state_dir) @@ fun () ->
  let handles =
    let conn =
      spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1"; "--state-dir"; state_dir ]
    in
    Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
    let hs = retain_fleet conn ~n:3 in
    List.iteri
      (fun k (h, _) ->
        ignore (expect_ok "delta" (roundtrip conn (50 + k) (delta_frame ~id:(50 + k) ~handle:h (step_instrs k 0)))))
      hs;
    hs
  in
  (* A whole new fleet over the same state dir: every handle is back. *)
  let conn = spawn [ "--shards"; "2"; "--cache"; "0"; "--workers"; "1"; "--state-dir"; state_dir ] in
  Fun.protect ~finally:(fun () -> stop conn) @@ fun () ->
  List.iteri
    (fun k (h, _) ->
      let j =
        expect_ok "post-restart delta"
          (roundtrip conn (80 + k) (delta_frame ~id:(80 + k) ~handle:h (step_instrs k 1)))
      in
      Alcotest.(check (option bool))
        (Printf.sprintf "handle %s recovered" h)
        (Some true) (bfield j "recovered"))
    handles

let () =
  Alcotest.run "lcm-recovery"
    [
      ( "recovery",
        [
          Alcotest.test_case "kill -9 mid-delta-stream: zero unknown_handle, exact state" `Quick
            test_kill9_mid_stream;
          Alcotest.test_case "recovered:true on the first post-recovery response" `Quick
            test_recovered_flag;
          Alcotest.test_case "two coincident deaths poison the request" `Quick
            test_poisoned_request;
          Alcotest.test_case "graceful restart rebuilds every handle" `Quick test_graceful_restart;
        ] );
    ]
