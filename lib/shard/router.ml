module Daemon = Lcm_server.Daemon
module Protocol = Lcm_server.Protocol
module Frame = Lcm_server.Frame
module Json = Lcm_server.Json
module Stats = Lcm_server.Stats
module Smetrics = Lcm_server.Smetrics
module Handles = Lcm_server.Handles
module Retry = Lcm_server.Retry
module Chash = Lcm_support.Chash
module Fault = Lcm_support.Fault
module Journal = Lcm_support.Journal
module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Frontend = Lcm_frontend.Frontend
module Trace = Lcm_obs.Trace

type config = {
  shards : int;
  cache_capacity : int;
  replicas : int;
  daemon : Daemon.config;
  socket_dir : string option;
  state_dir : string option;
  quiet : bool;
  stats : Stats.t;
}

let default_config () =
  {
    shards = 2;
    cache_capacity = 256;
    replicas = 32;
    daemon = Daemon.default_config ();
    socket_dir = None;
    state_dir = None;
    quiet = false;
    stats = Stats.create ();
  }

let shutdown_flag = Atomic.make false
let request_shutdown () = Atomic.set shutdown_flag true

(* ---- fleet state ---- *)

type client = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_reader : Frame.reader;
  c_owns_fds : bool;
  mutable c_eof : bool;
  mutable c_dead : bool;
}

(* A coalesced duplicate of an in-flight cacheable run: answered from the
   primary's response under its own ids. *)
type waiter = { wt_client : client; wt_id : Json.t; wt_trace : string option }

type agg = {
  mutable a_remaining : int;
  a_reg : Stats.t;
  a_client : client;
  a_id : Json.t;
  a_trace : string option;
}

type kind =
  | K_run of { cache_key : string option }
  | K_delta
  | K_proxy  (* sleep / profile: retryable on any sibling *)
  | K_stats of agg

type pending = {
  p_client : client;
  p_orig_id : Json.t;
  p_trace : string option;
  p_kind : kind;
  p_frame : string;  (* the forwarded frame (internal id), kept for replay *)
  mutable p_worker : int;
  mutable p_attempts : int;
  mutable p_deaths : int;
      (* worker deaths this request's processing has coincided with; at
         two the router quarantines it as a poisoned request instead of
         feeding it to yet another worker *)
}

type worker = {
  w_id : int;
  w_sock : string;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr option;  (* the router<->worker pipe conn *)
  mutable w_reader : Frame.reader;
  mutable w_started : float;
  mutable w_restarts : int;
  mutable w_consecutive : int;  (* deaths without a healthy uptime in between *)
  mutable w_respawn_at : float;  (* dead worker: when the backoff allows respawn *)
  w_held : (int * pending) Queue.t;
      (* deltas parked while this worker is recovering (dead, but its
         handles are journaled): flushed onto it once it reconnects *)
}

(* A cached response plus enough to verify it on the way out: the key it
   was stored under and a CRC of the payload as serialized at insert. *)
type cached = {
  cd_key : string;
  cd_crc : int;
  cd_fields : (string * Json.t) list;  (* response fields minus id/trace_id/timing *)
}

type state = {
  cfg : config;
  m : Smetrics.t;
  ring : Chash.t;
  workers : worker array;
  cache : cached Cache.t;
  memo : string Cache.t;  (* raw-text digest -> canonical digest *)
  inflight : (string, waiter list ref) Hashtbl.t;  (* cache key -> coalesced dups *)
  pending : (int, pending) Hashtbl.t;  (* internal id -> in-flight request *)
  mutable next_internal : int;
  mutable rr : int;  (* round-robin cursor for proxied ops *)
  mutable epoch : int;  (* chaos epoch counter across all worker restarts *)
  mutable clients : client list;
  listen_fd : Unix.file_descr option;
}

let log st fmt =
  Printf.ksprintf
    (fun m ->
      if not st.cfg.quiet then begin
        Printf.eprintf "lcmd-router: %s\n" m;
        flush stderr
      end)
    fmt

let now () = Unix.gettimeofday ()
let alive w = w.w_fd <> None
let alive_fn st i = i >= 0 && i < Array.length st.workers && alive st.workers.(i)

(* With a state dir, workers journal their handles: a dead worker is
   "recovering" — it will rebuild every handle on respawn — rather than
   a total loss of its retained state. *)
let journaling st = st.cfg.state_dir <> None

let worker_state_dir st w = Option.map (fun d -> Filename.concat d (Printf.sprintf "worker-%d" w.w_id)) st.cfg.state_dir

let health st w = if alive w then "up" else if journaling st then "recovering" else "down"

(* ---- worker lifecycle ---- *)

(* Forked, not exec'd: the child keeps our address space but runs a whole
   daemon (its own domain pool, its own stats registry, its own handle
   table).  Forking happens strictly before any domain is spawned in this
   process — the router never creates domains. *)
let spawn_worker st w =
  (* Fresh fault epoch per incarnation, like the supervisor: without it a
     fixed LCM_CHAOS seed replays the predecessor's crash schedule. *)
  if st.epoch > 0 && Sys.getenv_opt Fault.env_var <> None then
    Unix.putenv Fault.epoch_env_var (string_of_int st.epoch);
  st.epoch <- st.epoch + 1;
  match Unix.fork () with
  | 0 ->
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Daemon.request_shutdown ()));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Daemon.request_shutdown ()));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    ignore (Fault.install_from_env ());
    (* Drop the router's fds so a worker cannot pin a client connection
       (or the listener) past the router's own exit. *)
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) st.listen_fd;
    List.iter
      (fun c ->
        (try Unix.close c.c_in with Unix.Unix_error _ -> ());
        if c.c_out <> c.c_in then try Unix.close c.c_out with Unix.Unix_error _ -> ())
      st.clients;
    Array.iter
      (fun w' -> Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) w'.w_fd)
      st.workers;
    let dcfg =
      {
        st.cfg.daemon with
        Daemon.worker_id = Some w.w_id;
        stats = Stats.create ();
        (* Metrics survive this worker's own restarts (merged back in at
           startup); the stats op then reports fleet-lifetime counts. *)
        state_file = Some (w.w_sock ^ ".state");
        (* Each incarnation of slot [w_id] reads and writes the same
           journal directory: respawn hands the worker its predecessor's
           journals and it rebuilds every handle before serving. *)
        state_dir = worker_state_dir st w;
      }
    in
    (try
       Daemon.serve_unix_socket dcfg ~path:w.w_sock;
       Stdlib.exit 0
     with e ->
       Printf.eprintf "lcmd-worker%d: fatal: %s\n%!" w.w_id (Printexc.to_string e);
       Stdlib.exit 70)
  | pid ->
    w.w_pid <- pid;
    w.w_started <- now ()

(* The worker needs a beat to bind its socket; retry the connect briefly. *)
let connect_worker st w =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX w.w_sock) with
    | () ->
      w.w_fd <- Some fd;
      w.w_reader <- Frame.create ~max_frame:st.cfg.daemon.Daemon.max_frame
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EINTR), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if now () > deadline then log st "worker %d: cannot connect to %s" w.w_id w.w_sock
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

(* ---- frame plumbing ---- *)

let send_client c frame =
  if not c.c_dead then
    try Frame.write_frame c.c_out frame
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) -> c.c_dead <- true

(* Replace (or insert, first) a top-level field of a parsed frame,
   preserving the order of everything else. *)
let set_field name v fields =
  if List.mem_assoc name fields then
    List.map (fun (k, x) -> if String.equal k name then (k, v) else (k, x)) fields
  else (name, v) :: fields

let drop_fields names fields = List.filter (fun (k, _) -> not (List.mem k names)) fields

let obj_fields = function Json.Obj fs -> fs | _ -> []

(* Restore a response's correlation ids: the forwarded frame carried our
   internal id (trace_id passed through untouched), coalesced waiters get
   their own id and trace. *)
let rewrite_ids ~id ~trace fields =
  let fields = set_field "id" id fields in
  match trace with
  | Some t -> set_field "trace_id" (Json.String t) fields
  | None -> drop_fields [ "trace_id" ] fields

let render_hit ~id ~trace stored =
  let tid = match trace with Some t -> [ ("trace_id", Json.String t) ] | None -> [] in
  Json.to_string (Json.Obj ((("id", id) :: tid) @ stored @ [ ("cache", Json.String "hit") ]))

let trace_of req_fields = Option.bind (List.assoc_opt "trace_id" req_fields) Json.to_string_opt
let id_of req_fields = Option.value (List.assoc_opt "id" req_fields) ~default:Json.Null

(* ---- routing keys ---- *)

(* The canonical content of a run request.  Frontends that declare
   [route_canonical] (cfg, bril) are parsed + reprinted to the canonical
   Cfg text, so structurally identical graphs share one digest however —
   and in whichever format — the client wrote them.  An unparsable
   program routes (and caches, harmlessly: the worker answers the same
   parse_error every time) by its raw text; so do formats keyed on
   source (miniimp — lowering happens on the worker) and unregistered
   format names (the worker answers unsupported_format). *)
let canonical_content (r : Protocol.run_request) =
  match Frontend.find r.Protocol.format with
  | Some fe when fe.Frontend.route_canonical -> (
    match Frontend.parse_one fe ?func:r.Protocol.func r.Protocol.program with
    | Ok g -> Cfg.to_string g
    | Error _ -> r.Protocol.program)
  | Some _ | None ->
    r.Protocol.format ^ "|" ^ Option.value r.Protocol.func ~default:"" ^ "|" ^ r.Protocol.program

let route_digest content = Digest.to_hex (Digest.string content)

(* The canonicalizing reparse above costs ~100x an MD5 of the raw bytes,
   and every repeat of the same request text (retries, dup-heavy
   corpora, cache hits) would pay it again.  The memo recalls the
   canonical digest by raw-text digest instead.  It maps a pure function
   of (format, func, program) — entries can never go stale — and it is a
   bounded LRU, so a stream of unique texts just cycles it. *)
let memo_capacity = 4096

let raw_digest (r : Protocol.run_request) =
  Digest.string
    (r.Protocol.format ^ "\x00" ^ Option.value r.Protocol.func ~default:"" ^ "\x00"
   ^ r.Protocol.program)

let digest_of_run st (r : Protocol.run_request) =
  let raw = raw_digest r in
  match Cache.find st.memo raw with
  | Some d ->
    Stats.bump st.m.Smetrics.digest_memo_hits;
    d
  | None ->
    let d = route_digest (canonical_content r) in
    ignore (Cache.add st.memo raw d);
    d

(* Every option that shapes the response payload is part of the cache
   key; deadline, trace and the ignored [workers] field do not (timing is
   dropped from cached responses). *)
let cache_key ~digest (r : Protocol.run_request) =
  Printf.sprintf "%s|%s|%b|%b" digest r.Protocol.algorithm r.Protocol.simplify r.Protocol.validate

(* ---- forwarding ---- *)

exception Worker_gone of int

let worker_write w frame =
  (* Chaos: the worker connection failed exactly at the forward — the
     same observable as EPIPE, exercising death handling and replay. *)
  if Fault.fire "shard.forward" then raise (Worker_gone w.w_id);
  match w.w_fd with
  | None -> raise (Worker_gone w.w_id)
  | Some fd -> (
    try Frame.write_frame fd frame
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
      raise (Worker_gone w.w_id))

let make_pending st client ~kind ~worker ?(deaths = 0) req_fields =
  let internal = st.next_internal in
  st.next_internal <- internal + 1;
  let frame = Json.to_string (Json.Obj (set_field "id" (Json.Int internal) req_fields)) in
  ( internal,
    {
      p_client = client;
      p_orig_id = id_of req_fields;
      p_trace = trace_of req_fields;
      p_kind = kind;
      p_frame = frame;
      p_worker = worker;
      p_attempts = 1;
      p_deaths = deaths;
    } )

(* Forward [req_fields] (the client's parsed frame) to [worker] under a
   fresh internal id.  May raise [Worker_gone]; callers route around the
   corpse and retry via [handle_worker_death]. *)
let forward st client ~kind ~worker req_fields =
  let internal, p = make_pending st client ~kind ~worker req_fields in
  Hashtbl.replace st.pending internal p;
  Stats.bump (st.m.Smetrics.shard_routed worker);
  worker_write st.workers.(worker) p.p_frame

(* Park a delta for a recovering worker: it is not forwarded (and not in
   [pending]) until the worker reconnects with its handles rebuilt. *)
let hold st client ~worker req_fields =
  let internal, p = make_pending st client ~kind:K_delta ~worker req_fields in
  Stats.bump st.m.Smetrics.shard_held;
  Queue.push (internal, p) st.workers.(worker).w_held

let inline_error st client ~id ~trace ~code ~message =
  Smetrics.error st.m code;
  send_client client (Protocol.error ~id ?trace_id:trace ~code ~message ())

(* Quarantine: the request's processing has now coincided with two worker
   deaths.  Odds are the request is what kills them — replaying it again
   would cycle the ring killing workers (the retry storm). *)
let poison st p =
  Stats.bump st.m.Smetrics.shard_poisoned;
  inline_error st p.p_client ~id:p.p_orig_id ~trace:p.p_trace ~code:Protocol.Poisoned_request
    ~message:
      "request quarantined: its processing coincided with two worker crashes — not replayed again"

(* ---- the stats broadcast ---- *)

let shard_info st =
  ( "shard",
    Json.Obj
      [
        ("workers", Json.Int st.cfg.shards);
        ( "fleet",
          Json.List
            (Array.to_list
               (Array.map
                  (fun w ->
                    Json.Obj
                      [
                        ("worker", Json.Int w.w_id);
                        ("pid", Json.Int w.w_pid);
                        ("alive", Json.Bool (alive w));
                        ("health", Json.String (health st w));
                        ("held", Json.Int (Queue.length w.w_held));
                        ("restarts", Json.Int w.w_restarts);
                      ])
                  st.workers)) );
      ] )

let finalize_stats st agg =
  (* Fold the router's own counters into the merged worker registries. *)
  Stats.record_gc st.cfg.stats;
  Stats.merge_snapshot agg.a_reg (Stats.snapshot st.cfg.stats);
  let merged =
    match Stats.snapshot agg.a_reg with
    | Json.Obj fields -> Json.Obj (fields @ [ shard_info st ])
    | j -> j
  in
  send_client agg.a_client
    (Protocol.ok_stats ~id:agg.a_id ?trace_id:agg.a_trace ~stats:merged ())

let broadcast_stats st client req_fields =
  let live = Array.to_list st.workers |> List.filter alive in
  let agg =
    {
      a_remaining = List.length live;
      a_reg = Stats.create ();
      a_client = client;
      a_id = id_of req_fields;
      a_trace = trace_of req_fields;
    }
  in
  if live = [] then finalize_stats st agg
  else
    List.iter
      (fun w ->
        try forward st client ~kind:(K_stats agg) ~worker:w.w_id req_fields
        with Worker_gone _ ->
          agg.a_remaining <- agg.a_remaining - 1;
          if agg.a_remaining = 0 then finalize_stats st agg)
      live

(* ---- worker responses ---- *)

let respond_waiters st ~cache_key ~stored ~response_fields =
  match Hashtbl.find_opt st.inflight cache_key with
  | None -> ()
  | Some waiters ->
    Hashtbl.remove st.inflight cache_key;
    List.iter
      (fun wt ->
        let frame =
          match stored with
          | Some s -> render_hit ~id:wt.wt_id ~trace:wt.wt_trace s
          | None ->
            (* The primary failed; every coalesced duplicate gets the same
               (error) response under its own ids. *)
            Json.to_string (Json.Obj (rewrite_ids ~id:wt.wt_id ~trace:wt.wt_trace response_fields))
        in
        send_client wt.wt_client frame)
      (List.rev !waiters)

let handle_worker_frame st frame =
  let j = try Json.parse frame with Json.Parse_error _ -> Json.Null in
  match Option.bind (Json.member "id" j) Json.to_int_opt with
  | None -> ()  (* not one of ours (or unparsable): drop *)
  | Some internal -> (
    match Hashtbl.find_opt st.pending internal with
    | None -> ()  (* response from a replaced incarnation; already retried *)
    | Some p -> (
      Hashtbl.remove st.pending internal;
      match p.p_kind with
      | K_stats agg ->
        Option.iter (Stats.merge_snapshot agg.a_reg) (Json.member "stats" j);
        agg.a_remaining <- agg.a_remaining - 1;
        if agg.a_remaining <= 0 then finalize_stats st agg
      | K_run { cache_key } ->
        let fields = obj_fields j in
        send_client p.p_client
          (Json.to_string (Json.Obj (rewrite_ids ~id:p.p_orig_id ~trace:p.p_trace fields)));
        Option.iter
          (fun key ->
            let ok =
              Json.member "status" j = Some (Json.String "ok")
              && Json.member "degraded" j = None
            in
            let stored =
              if ok then Some (drop_fields [ "id"; "trace_id"; "timing" ] fields) else None
            in
            Option.iter
              (fun s ->
                let crc = Journal.crc32 (Json.to_string (Json.Obj s)) in
                (* Chaos: the insert wrote a corrupt entry — the integrity
                   guard on the hit path must catch it. *)
                let crc = if Fault.fire "shard.cache.insert" then crc lxor 1 else crc in
                let evicted = Cache.add st.cache key { cd_key = key; cd_crc = crc; cd_fields = s } in
                if evicted > 0 then Stats.bump ~by:evicted st.m.Smetrics.cache_evictions)
              stored;
            respond_waiters st ~cache_key:key ~stored ~response_fields:fields)
          cache_key
      | K_delta | K_proxy ->
        send_client p.p_client
          (Json.to_string
             (Json.Obj (rewrite_ids ~id:p.p_orig_id ~trace:p.p_trace (obj_fields j))))))

(* ---- worker death: retry, reap, respawn ---- *)

let respawn_backoff = { Retry.retries = max_int; base_ms = 50.; cap_ms = 1000.; budget_ms = None }

let handle_worker_death st w =
  if alive w then begin
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) w.w_fd;
    w.w_fd <- None;
    let uptime = now () -. w.w_started in
    w.w_consecutive <- (if uptime >= 2. then 1 else w.w_consecutive + 1);
    let backoff_ms = Retry.backoff_ms respawn_backoff ~attempt:(w.w_consecutive - 1) in
    w.w_respawn_at <- now () +. (backoff_ms /. 1000.);
    log st "worker %d (pid %d) died after %.1f s; respawn in %.0f ms" w.w_id w.w_pid uptime
      backoff_ms;
    (* Reassign the corpse's in-flight work — in admission order
       (internal ids are monotonic), so a stream of deltas on one handle
       replays in the order the client sent it. *)
    let victims =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold
           (fun i p acc -> if p.p_worker = w.w_id then (i, p) :: acc else acc)
           st.pending [])
    in
    List.iter
      (fun (internal, p) ->
        Hashtbl.remove st.pending internal;
        p.p_deaths <- p.p_deaths + 1;
        match p.p_kind with
        | K_stats agg ->
          agg.a_remaining <- agg.a_remaining - 1;
          if agg.a_remaining <= 0 then finalize_stats st agg
        | _ when p.p_deaths >= 2 -> poison st p
        | K_delta when journaling st ->
          (* The handle is journaled: park the frame and replay it on this
             same worker once its handles are rebuilt.  Replaying onto a
             sibling would be wrong — no other worker holds the handle. *)
          Stats.bump st.m.Smetrics.shard_replays;
          Stats.bump st.m.Smetrics.shard_held;
          Queue.push (internal, p) w.w_held
        | K_delta ->
          (* Without a journal, handles die with their worker: a replay
             elsewhere could only answer unknown_handle anyway — say so
             directly. *)
          inline_error st p.p_client ~id:p.p_orig_id ~trace:p.p_trace
            ~code:Protocol.Unknown_handle
            ~message:
              (Printf.sprintf "worker %d crashed; its retained handles are gone — re-submit with \
                               retain:true" w.w_id)
        | K_run _ | K_proxy -> (
          (* Crash transparency: replay the identical frame — same payload,
             same trace_id — on the ring successor.  Hops are capped at
             ring size: past that every worker has refused (or died under)
             the frame once. *)
          match Chash.successor st.ring ~alive:(alive_fn st) w.w_id with
          | Some next when p.p_attempts < st.cfg.shards ->
            Stats.bump st.m.Smetrics.shard_retries;
            Stats.bump st.m.Smetrics.shard_replays;
            p.p_attempts <- p.p_attempts + 1;
            p.p_worker <- next;
            Hashtbl.replace st.pending internal p;
            Stats.bump (st.m.Smetrics.shard_routed next);
            (try worker_write st.workers.(next) p.p_frame
             with Worker_gone _ ->
               (* The sibling died between our liveness check and the
                  write; the recursive death handler will retry again. *)
               ())
          | _ ->
            inline_error st p.p_client ~id:p.p_orig_id ~trace:p.p_trace ~code:Protocol.Internal
              ~message:"no worker could serve the request (fleet unavailable)"))
      victims
  end

(* Replay the deltas parked while [w] was recovering.  Every handle was
   rebuilt from its journal before the worker's accept loop started, so
   the frames land on a worker that again holds them.  If the worker dies
   again mid-flush, the unsent remainder goes back through the death
   handler (which re-holds or poisons each one). *)
let flush_held st w =
  let rec go () =
    if alive w && not (Queue.is_empty w.w_held) then begin
      let internal, p = Queue.pop w.w_held in
      p.p_worker <- w.w_id;
      Hashtbl.replace st.pending internal p;
      Stats.bump (st.m.Smetrics.shard_routed w.w_id);
      (match worker_write w p.p_frame with
      | () -> ()
      | exception Worker_gone _ ->
        Hashtbl.remove st.pending internal;
        Queue.push (internal, p) w.w_held;
        handle_worker_death st w);
      go ()
    end
  in
  go ()

let reap st =
  Array.iter
    (fun w ->
      if w.w_pid > 0 then
        match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
        | 0, _ -> ()
        | _, _ ->
          w.w_pid <- -w.w_pid;  (* remember it for the stats fleet view, negated = reaped *)
          handle_worker_death st w
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          w.w_pid <- -w.w_pid;
          handle_worker_death st w
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    st.workers

let respawn_due st =
  Array.iter
    (fun w ->
      if (not (alive w)) && now () >= w.w_respawn_at && not (Atomic.get shutdown_flag) then begin
        (* A corpse we could not connect to may still be running: make
           sure the slot is empty before forking into it. *)
        if w.w_pid > 0 then begin
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
        end;
        Stats.bump st.m.Smetrics.shard_restarts;
        w.w_restarts <- w.w_restarts + 1;
        spawn_worker st w;
        connect_worker st w;
        if alive w then begin
          log st "worker %d respawned (pid %d)" w.w_id w.w_pid;
          (* Safe even while the worker is still replaying its journal:
             it binds the socket before recovery, so frames flushed now
             queue in the socket buffer and are only processed by the
             serve loop, which starts after every handle is rebuilt. *)
          if not (Queue.is_empty w.w_held) then begin
            log st "worker %d: replaying %d held delta(s)" w.w_id (Queue.length w.w_held);
            flush_held st w
          end
        end
      end)
    st.workers

(* ---- request admission ---- *)

let process_frame st client line =
  Stats.bump st.m.Smetrics.frames_total;
  match Protocol.parse_request line with
  | Error (id, trace, code, message) -> inline_error st client ~id ~trace ~code ~message
  | Ok req -> (
    Stats.bump st.m.Smetrics.requests_total;
    let req_fields = obj_fields (Json.parse line) in
    let id = req.Protocol.id in
    let trace = req.Protocol.trace_id in
    match req.Protocol.op with
    | Protocol.Ping ->
      Stats.bump st.m.Smetrics.responses_ok;
      send_client client (Protocol.ok_ping ~id ?trace_id:trace ())
    | Protocol.Stats -> broadcast_stats st client req_fields
    | Protocol.Profile | Protocol.Sleep _ -> (
      (* Proxied, load-insensitive ops: round-robin over the live fleet. *)
      let n = Array.length st.workers in
      let rec pick k = if k >= n then None else
          let i = (st.rr + k) mod n in
          if alive_fn st i then Some i else pick (k + 1)
      in
      st.rr <- st.rr + 1;
      match pick 0 with
      | None ->
        inline_error st client ~id ~trace ~code:Protocol.Internal
          ~message:"no worker available"
      | Some w -> (
        try forward st client ~kind:K_proxy ~worker:w req_fields
        with Worker_gone wid -> handle_worker_death st st.workers.(wid)))
    | Protocol.Delta d -> (
      match Handles.worker_of_handle d.Protocol.d_handle with
      | Some w when alive_fn st w -> (
        try forward st client ~kind:K_delta ~worker:w req_fields
        with Worker_gone wid -> handle_worker_death st st.workers.(wid))
      | Some w
        when journaling st && w < Array.length st.workers && not (Atomic.get shutdown_flag) ->
        (* Recovering worker: its handles are journaled and will be back
           once it respawns.  Park the frame instead of failing it. *)
        hold st client ~worker:w req_fields
      | Some _ | None ->
        inline_error st client ~id ~trace ~code:Protocol.Unknown_handle
          ~message:
            (Printf.sprintf "unknown handle %S: no live worker holds it" d.Protocol.d_handle))
    | Protocol.Run r -> (
      let digest = digest_of_run st r in
      let key = if r.Protocol.retain then None else Some (cache_key ~digest r) in
      let serve_miss () =
        match Chash.lookup_alive st.ring ~alive:(alive_fn st) digest with
        | None ->
          inline_error st client ~id ~trace ~code:Protocol.Internal
            ~message:"no worker available"
        | Some w -> (
          Option.iter (fun k -> Hashtbl.replace st.inflight k (ref [])) key;
          try forward st client ~kind:(K_run { cache_key = key }) ~worker:w req_fields
          with Worker_gone wid -> handle_worker_death st st.workers.(wid))
      in
      match key with
      | None -> serve_miss ()
      | Some k -> (
        let hit =
          match Cache.find st.cache k with
          | None -> None
          | Some stored ->
            (* Integrity guard: the entry must still be keyed by the
               digest we asked for and its payload must match the
               checksum taken at insert.  A corrupt entry is dropped and
               the request falls through to a real solve. *)
            if
              String.equal stored.cd_key k
              && Journal.crc32 (Json.to_string (Json.Obj stored.cd_fields)) = stored.cd_crc
            then Some stored
            else begin
              Stats.bump st.m.Smetrics.cache_corrupt;
              Cache.remove st.cache k;
              None
            end
        in
        match hit with
        | Some stored ->
          (* Content-addressed hit: identical canonical graph + options,
             answered without any worker (or solver) involvement. *)
          Stats.bump st.m.Smetrics.cache_hits;
          Stats.bump st.m.Smetrics.responses_ok;
          send_client client (render_hit ~id ~trace stored.cd_fields)
        | None -> (
          match Hashtbl.find_opt st.inflight k with
          | Some waiters ->
            (* Same request already on a worker: wait for that answer
               instead of solving twice. *)
            Stats.bump st.m.Smetrics.cache_hits;
            waiters := { wt_client = client; wt_id = id; wt_trace = trace } :: !waiters
          | None ->
            Stats.bump st.m.Smetrics.cache_misses;
            serve_miss ()))))

(* ---- event loop ---- *)

let drain_inflight_errors st =
  (* Shutdown with work still in flight (worker never answered): fail the
     waiters explicitly rather than dropping the connection silently. *)
  Hashtbl.iter
    (fun _ p ->
      match p.p_kind with
      | K_stats agg ->
        if agg.a_remaining > 0 then begin
          agg.a_remaining <- 0;
          finalize_stats st agg
        end
      | _ ->
        inline_error st p.p_client ~id:p.p_orig_id ~trace:p.p_trace ~code:Protocol.Shutting_down
          ~message:"router shutting down before the worker answered")
    st.pending;
  Hashtbl.reset st.pending;
  (* Deltas parked for a recovering worker never reached st.pending. *)
  Array.iter
    (fun w ->
      Queue.iter
        (fun (_, p) ->
          inline_error st p.p_client ~id:p.p_orig_id ~trace:p.p_trace
            ~code:Protocol.Shutting_down
            ~message:"router shutting down before the worker recovered")
        w.w_held;
      Queue.clear w.w_held)
    st.workers

let teardown st =
  drain_inflight_errors st;
  Array.iter
    (fun w ->
      Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) w.w_fd;
      w.w_fd <- None;
      if w.w_pid > 0 then begin
        (try Unix.kill w.w_pid Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
      end;
      (try Unix.unlink w.w_sock with Unix.Unix_error _ -> ());
      (try Unix.unlink (w.w_sock ^ ".state") with Unix.Unix_error _ -> ()))
    st.workers;
  List.iter
    (fun c ->
      if c.c_owns_fds then begin
        (try Unix.close c.c_in with Unix.Unix_error _ -> ());
        if c.c_out <> c.c_in then try Unix.close c.c_out with Unix.Unix_error _ -> ()
      end)
    st.clients;
  Atomic.set shutdown_flag false

let mk_client ?(owns_fds = false) ~max_frame ~fd_in ~fd_out () =
  {
    c_in = fd_in;
    c_out = fd_out;
    c_reader = Frame.create ~max_frame;
    c_owns_fds = owns_fds;
    c_eof = false;
    c_dead = false;
  }

let read_client st c =
  let chunk = Frame.read_chunk c.c_reader in
  match Unix.read c.c_in chunk 0 (Bytes.length chunk) with
  | 0 -> c.c_eof <- true
  | n ->
    List.iter
      (function
        | Frame.Frame line -> process_frame st c line
        | Frame.Oversized bytes ->
          Stats.bump st.m.Smetrics.rejected_oversized;
          inline_error st c ~id:Json.Null ~trace:None ~code:Protocol.Oversized
            ~message:
              (Printf.sprintf "frame of %d bytes exceeds max_frame=%d" bytes
                 st.cfg.daemon.Daemon.max_frame))
      (Frame.feed c.c_reader chunk n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> c.c_eof <- true

let read_worker st w =
  match w.w_fd with
  | None -> ()
  | Some fd -> (
    let chunk = Frame.read_chunk w.w_reader in
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> handle_worker_death st w
    | n ->
      List.iter
        (function Frame.Frame line -> handle_worker_frame st line | Frame.Oversized _ -> ())
        (Frame.feed w.w_reader chunk n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
      handle_worker_death st w)

let serve_loop st =
  let stop = ref false in
  while not !stop do
    reap st;
    respawn_due st;
    let read_fds =
      (match st.listen_fd with Some fd when not (Atomic.get shutdown_flag) -> [ fd ] | _ -> [])
      @ List.filter_map (fun c -> if c.c_eof || c.c_dead then None else Some c.c_in) st.clients
      @ List.filter_map (fun w -> w.w_fd) (Array.to_list st.workers)
    in
    (match Unix.select read_fds [] [] 0.02 with
    | readable, _, _ ->
      (match st.listen_fd with
      | Some lfd when List.mem lfd readable -> (
        match Unix.accept ~cloexec:true lfd with
        | fd, _ ->
          (* Chaos: drop the connection at the door, as a flaky network
             stack would. *)
          if Fault.fire "shard.accept" then begin
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Stats.bump st.m.Smetrics.accept_failures
          end
          else begin
            Stats.bump st.m.Smetrics.connections_total;
            st.clients <-
              mk_client ~owns_fds:true ~max_frame:st.cfg.daemon.Daemon.max_frame ~fd_in:fd
                ~fd_out:fd ()
              :: st.clients
          end
        | exception Unix.Unix_error _ -> Stats.bump st.m.Smetrics.accept_failures)
      | _ -> ());
      List.iter (fun c -> if (not c.c_eof) && (not c.c_dead) && List.mem c.c_in readable then read_client st c) st.clients;
      Array.iter
        (fun w -> match w.w_fd with Some fd when List.mem fd readable -> read_worker st w | _ -> ())
        st.workers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* Closed clients whose responses are all out can be dropped. *)
    st.clients <-
      List.filter
        (fun c ->
          let held_for c =
            Array.exists
              (fun w -> Queue.fold (fun acc (_, p) -> acc || p.p_client == c) false w.w_held)
              st.workers
          in
          let gone =
            (c.c_eof || c.c_dead)
            && (not (Hashtbl.fold (fun _ p acc -> acc || p.p_client == c) st.pending false))
            && not (held_for c)
          in
          if gone && c.c_owns_fds then begin
            (try Unix.close c.c_in with Unix.Unix_error _ -> ());
            if c.c_out <> c.c_in then (try Unix.close c.c_out with Unix.Unix_error _ -> ())
          end;
          not gone)
        st.clients;
    if Atomic.get shutdown_flag && Hashtbl.length st.pending = 0 then stop := true;
    (* fd mode: end of input + nothing in flight = graceful drain.  Held
       deltas count as in flight: their worker is recovering and will
       answer them after its respawn. *)
    if
      st.listen_fd = None
      && List.for_all (fun c -> c.c_eof || c.c_dead) st.clients
      && Hashtbl.length st.pending = 0
      && Array.for_all (fun w -> Queue.is_empty w.w_held) st.workers
    then stop := true
  done

let make_state cfg ?listen_fd clients =
  let socket_dir =
    match cfg.socket_dir with
    | Some d -> d
    | None ->
      let d =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "lcmd-shard-%d" (Unix.getpid ()))
      in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d
  in
  if cfg.shards < 1 then invalid_arg "Router: shards < 1";
  let workers =
    Array.init cfg.shards (fun i ->
        {
          w_id = i;
          w_sock = Filename.concat socket_dir (Printf.sprintf "worker-%d.sock" i);
          w_pid = 0;
          w_fd = None;
          w_reader = Frame.create ~max_frame:cfg.daemon.Daemon.max_frame;
          w_started = 0.;
          w_restarts = 0;
          w_consecutive = 0;
          w_respawn_at = 0.;
          w_held = Queue.create ();
        })
  in
  let st =
    {
      cfg;
      m = Smetrics.create cfg.stats;
      ring = Chash.create ~nodes:cfg.shards ~replicas:cfg.replicas;
      workers;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      memo = Cache.create ~capacity:memo_capacity;
      inflight = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      next_internal = 1;
      rr = 0;
      epoch = 0;
      clients;
      listen_fd;
    }
  in
  Array.iter
    (fun w ->
      spawn_worker st w;
      connect_worker st w)
    st.workers;
  log st "routing over %d workers (cache=%d entries, replicas=%d)" cfg.shards cfg.cache_capacity
    cfg.replicas;
  st

let serve_fds cfg ~fd_in ~fd_out =
  let client = mk_client ~max_frame:cfg.daemon.Daemon.max_frame ~fd_in ~fd_out () in
  let st = make_state cfg [ client ] in
  Fun.protect ~finally:(fun () -> teardown st) (fun () -> serve_loop st)

let serve_unix_socket cfg ~path =
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  let st = make_state cfg ~listen_fd:lfd [] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      teardown st)
    (fun () -> serve_loop st)
