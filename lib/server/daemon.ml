module Pool = Lcm_support.Pool
module Fault = Lcm_support.Fault
module Trace = Lcm_obs.Trace
module Prof = Lcm_obs.Prof

type config = {
  queue_capacity : int;
  batch_max : int;
  max_frame : int;
  default_deadline_ms : float option;
  workers : int;
  no_timing : bool;
  quiet : bool;
  stats : Stats.t;
  hard_faults : bool;  (* allow process-killing chaos points (daemon.crash) *)
  state_file : string option;  (* metrics persisted here across supervised restarts *)
  state_dir : string option;  (* handle journals live here; set => retained handles survive kill -9 *)
  journal_compact : int;  (* patches per handle before its journal is compacted to a snapshot *)
  trace_dir : string option;  (* tracing on iff set; one Chrome file per trace id *)
  worker_id : int option;  (* shard worker index: stamped into responses + handle names *)
}

let default_config () =
  {
    queue_capacity = 256;
    batch_max = 32;
    max_frame = 1 lsl 20;
    default_deadline_ms = None;
    workers = Pool.default_size ();
    no_timing = false;
    quiet = false;
    stats = Stats.global;
    hard_faults = false;
    state_file = None;
    state_dir = None;
    journal_compact = 64;
    trace_dir = None;
    worker_id = None;
  }

(* One flag for the whole process so a signal handler has a fixed target;
   cleared when a loop exits so daemons can run back to back (tests). *)
let shutdown_flag = Atomic.make false
let request_shutdown () = Atomic.set shutdown_flag true

type conn = {
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  reader : Frame.reader;
  out : Buffer.t;  (* response bytes not yet accepted by the peer *)
  writer : Frame.writer;  (* reusable flush scratch (see [flush_out]) *)
  owns_fds : bool;  (* accepted sockets are closed by the daemon; stdio fds are not *)
  mutable eof : bool;
  mutable dead : bool;
  mutable inflight : int;  (* admitted requests whose response is not yet buffered *)
}

type item = {
  i_conn : conn;
  i_req : Protocol.request;
  i_arrival : float;
  i_deadline : float option;
  i_trace : string;  (* resolved at admission: client's trace_id or minted *)
}

type state = {
  cfg : config;
  engine : Engine.config;
  pool : Pool.t;
  queue : item Bqueue.t;
  mutable conns : conn list;
  listen_fd : Unix.file_descr option;
  mutable served : int;
  mutable last_save : float;  (* last periodic metrics save (state_file only) *)
  mutable last_trace_flush : float;  (* last drain of the "daemon" I/O trace *)
}

let now = Unix.gettimeofday
let metrics st = st.engine.Engine.m

let log st fmt =
  Printf.ksprintf
    (fun m ->
      if not st.cfg.quiet then begin
        Printf.eprintf "lcmd: %s\n" m;
        flush stderr
      end)
    fmt

(* ---- writing ---- *)

let kill_conn conn =
  if not conn.dead then begin
    conn.dead <- true;
    conn.eof <- true;
    Buffer.clear conn.out;
    if conn.owns_fds then begin
      (try Unix.close conn.fd_in with Unix.Unix_error _ -> ());
      if conn.fd_out != conn.fd_in then try Unix.close conn.fd_out with Unix.Unix_error _ -> ()
    end
  end

(* Write as much buffered output as the peer accepts right now. *)
let flush_out conn =
  if conn.owns_fds && Fault.fire "sock.write" then
    (* Chaos: the peer vanished mid-write (what EPIPE would tell us). *)
    kill_conn conn;
  if (not conn.dead) && Buffer.length conn.out > 0 then
    Trace.in_trace ~trace_id:"daemon" "io.write" @@ fun () ->
    begin
    (* The scratch aliases conn.writer until the next flush, which is fine:
       the refill below copies the unwritten tail back into conn.out. *)
    let b = Frame.writer_bytes conn.writer conn.out in
    let n = Buffer.length conn.out in
    let written = ref 0 in
    let stop = ref false in
    while (not !stop) && !written < n do
      match Unix.write conn.fd_out b !written (n - !written) with
      | 0 -> stop := true
      | k -> written := !written + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> stop := true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        kill_conn conn;
        stop := true
    done;
    if not conn.dead then begin
      Buffer.clear conn.out;
      if !written < n then Buffer.add_subbytes conn.out b !written (n - !written)
    end
  end

let send conn frame =
  if not conn.dead then begin
    Buffer.add_string conn.out frame;
    Buffer.add_char conn.out '\n';
    flush_out conn
  end

(* ---- per-trace files ----

   One Chrome trace_event file per trace id, append-only: the format
   accepts an unterminated array, so a retry (same client trace_id) or a
   post-restart incarnation appends its spans to the same file and the
   loaded document still shows one tree per request attempt.  Trace I/O
   must never take the daemon down — failures are swallowed. *)

let sanitize_id s =
  String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c | _ -> '_') s

let append_trace_file ~dir ~trace_id spans =
  let path = Filename.concat dir (sanitize_id trace_id ^ ".trace.json") in
  let existed = Sys.file_exists path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if not existed then output_string oc "[\n";
  List.iter (fun sp -> output_string oc (Json.to_string (Trace.chrome_event sp) ^ ",\n")) spans;
  close_out oc

(* Drain a finished trace: feed the profile aggregator, persist the file. *)
let collect_trace st trace_id =
  match st.cfg.trace_dir with
  | None -> ()
  | Some dir ->
    (match Trace.take ~trace_id with
    | [] -> ()
    | spans ->
      Prof.add st.engine.Engine.prof spans;
      (try append_trace_file ~dir ~trace_id spans with Sys_error _ -> ()))

(* ---- admission ---- *)

let admission_error st conn ~id ~trace_id ~code ~message =
  Smetrics.error (metrics st) code;
  send conn (Protocol.error ~id ~trace_id ~code ~message ());
  collect_trace st trace_id

let handle_frame st conn frame =
  (* Process-killing chaos is rate-per-frame so availability under a given
     fault rate is predictable; only the supervised binary opts in. *)
  if st.cfg.hard_faults && Fault.fire "daemon.crash" then begin
    prerr_endline "lcmd: chaos: simulated crash (daemon.crash)";
    Unix._exit 70
  end;
  Stats.bump (metrics st).Smetrics.frames_total;
  match Protocol.parse_request frame with
  | Error (id, trace_id, code, message) ->
    (* Even an unparseable request gets a trace id (minted if the frame
       carried none we could recover) so the error response correlates. *)
    let trace_id = match trace_id with Some t -> t | None -> Trace.mint_id () in
    admission_error st conn ~id ~trace_id ~code ~message
  | Ok req ->
    Stats.bump (metrics st).Smetrics.requests_total;
    let trace_id =
      match req.Protocol.trace_id with Some t -> t | None -> Trace.mint_id ()
    in
    let arrival = now () in
    (match req.Protocol.op with
    | Protocol.Stats | Protocol.Profile | Protocol.Ping ->
      (* Control-plane ops bypass the queue: they stay answerable when the
         daemon is overloaded or draining. *)
      conn.inflight <- conn.inflight + 1;
      let r = Engine.execute st.engine ~now ~arrival ~deadline:None ~trace_id req in
      conn.inflight <- conn.inflight - 1;
      st.served <- st.served + 1;
      send conn r;
      collect_trace st trace_id
    | Protocol.Run _ | Protocol.Delta _ | Protocol.Sleep _ ->
      (Trace.in_trace ~trace_id "daemon.admission" @@ fun () ->
      if Atomic.get shutdown_flag then
        admission_error st conn ~id:req.Protocol.id ~trace_id ~code:Protocol.Shutting_down
          ~message:"daemon is draining; request not admitted"
      else begin
        let deadline_ms =
          match req.Protocol.deadline_ms with
          | Some d -> Some d
          | None -> st.cfg.default_deadline_ms
        in
        let i_deadline = Option.map (fun d -> arrival +. (d /. 1000.)) deadline_ms in
        let item = { i_conn = conn; i_req = req; i_arrival = arrival; i_deadline; i_trace = trace_id } in
        let admitted =
          (* "queue.reject" sheds load the queue had room for (client retry
             drills); an exception out of the push ("bqueue.push" chaos, or
             a real bug) must surface as a typed error, not kill the loop. *)
          if Fault.fire "queue.reject" then Ok false
          else match Bqueue.try_push st.queue item with
            | ok -> Ok ok
            | exception e -> Error (Printexc.to_string e)
        in
        match admitted with
        | Ok true -> conn.inflight <- conn.inflight + 1
        | Ok false ->
          Stats.bump (metrics st).Smetrics.rejected_overloaded;
          admission_error st conn ~id:req.Protocol.id ~trace_id ~code:Protocol.Overloaded
            ~message:
              (Printf.sprintf "queue full (%d requests); retry later" (Bqueue.capacity st.queue))
        | Error m ->
          admission_error st conn ~id:req.Protocol.id ~trace_id ~code:Protocol.Internal
            ~message:("admission failed: " ^ m)
      end);
      (* The admission span only finishes when [in_trace] returns, so the
         collect inside [admission_error] cannot see it.  Flush again here:
         a rejection's spans must reach the trace file now — the very next
         frame may crash the process (chaos) and lose the buffer. *)
      collect_trace st trace_id)

let read_conn st conn =
  if conn.owns_fds && Fault.fire "sock.read" then
    (* Chaos: the read side of the socket failed (ECONNRESET). *)
    kill_conn conn
  else begin
  let buf = Frame.read_chunk conn.reader in
  match Trace.in_trace ~trace_id:"daemon" "io.read" (fun () -> Unix.read conn.fd_in buf 0 (Bytes.length buf)) with
  | 0 -> conn.eof <- true
  | len ->
    (* Chaos on the byte stream itself: a torn read loses the tail of the
       chunk (frames split mid-line parse as garbage), a corrupt read flips
       one byte.  Both must surface as typed parse errors, never a wedge. *)
    let len = if len > 1 && Fault.fire "sock.read.torn" then len / 2 else len in
    if len > 0 && Fault.fire "sock.read.corrupt" then begin
      let k = len / 2 in
      Bytes.set buf k (Char.chr (Char.code (Bytes.get buf k) lxor 0x20))
    end;
    List.iter
      (function
        | Frame.Frame f -> handle_frame st conn f
        | Frame.Oversized n ->
          Stats.bump (metrics st).Smetrics.rejected_oversized;
          admission_error st conn ~id:Json.Null ~trace_id:(Trace.mint_id ()) ~code:Protocol.Oversized
            ~message:
              (Printf.sprintf "frame of %d bytes exceeds max_frame=%d" n st.cfg.max_frame))
      (Frame.feed conn.reader buf len)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> kill_conn conn
  end

(* ---- dispatch ---- *)

let dispatch_batch st =
  let batch = Bqueue.pop_batch st.queue ~max:st.cfg.batch_max in
  match batch with
  | [] -> ()
  | _ ->
    Stats.bump (metrics st).Smetrics.batches_total;
    Stats.observe (metrics st).Smetrics.batch_size (float_of_int (List.length batch));
    let items = Array.of_list batch in
    let results = Array.make (Array.length items) "" in
    let task k () =
      let it = items.(k) in
      results.(k) <-
        Engine.execute st.engine ~now ~arrival:it.i_arrival ~deadline:it.i_deadline
          ~trace_id:it.i_trace it.i_req
    in
    (* The pool itself can fail (chaos "pool.task" kills a worker mid-run, or
       a genuine bug escapes the engine's own net).  Every admitted request
       still owes its connection a response frame, so fill the holes. *)
    (try Pool.run st.pool (List.init (Array.length items) task)
     with e ->
       Stats.bump (metrics st).Smetrics.dispatch_failures;
       let m = Printexc.to_string e in
       Array.iteri
         (fun k it ->
           if results.(k) = "" then begin
             Smetrics.error (metrics st) Protocol.Internal;
             results.(k) <-
               Protocol.error ~id:it.i_req.Protocol.id ~trace_id:it.i_trace ~code:Protocol.Internal
                 ~message:("worker failed: " ^ m) ()
           end)
         items);
    Array.iteri
      (fun k it ->
        it.i_conn.inflight <- it.i_conn.inflight - 1;
        st.served <- st.served + 1;
        send it.i_conn results.(k);
        collect_trace st it.i_trace)
      items

(* ---- the loop ---- *)

let accept_ready st =
  match st.listen_fd with
  | None -> ()
  | Some lfd ->
    (match Unix.accept ~cloexec:true lfd with
    | fd, _ when Fault.fire "sock.accept" ->
      (* Chaos: the connection died between accept and first read. *)
      Stats.bump (metrics st).Smetrics.accept_failures;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
      Unix.set_nonblock fd;
      Stats.bump (metrics st).Smetrics.connections_total;
      st.conns <-
        st.conns
        @ [
            {
              fd_in = fd;
              fd_out = fd;
              reader = Frame.create ~max_frame:st.cfg.max_frame;
              out = Buffer.create 4096;
              writer = Frame.writer ();
              owns_fds = true;
              eof = false;
              dead = false;
              inflight = 0;
            };
          ]
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

let live_conns st = List.filter (fun c -> not c.dead) st.conns

let reap st =
  List.iter
    (fun c ->
      (* A connection whose input ended and whose work is fully answered
         has nothing left to exchange. *)
      if c.eof && (not c.dead) && c.inflight = 0 && Buffer.length c.out = 0 && c.owns_fds then
        kill_conn c)
    st.conns;
  st.conns <- List.filter (fun c -> not c.dead) st.conns

let drained st =
  Bqueue.is_empty st.queue
  && List.for_all (fun c -> c.inflight = 0 && Buffer.length c.out = 0) (live_conns st)

let all_inputs_finished st =
  st.listen_fd = None && List.for_all (fun c -> c.eof) (live_conns st)

let serve_loop st =
  let finished = ref false in
  while not !finished do
    let draining = Atomic.get shutdown_flag in
    let read_fds =
      (if draining then [] else Option.to_list st.listen_fd)
      @ List.filter_map
          (fun c -> if c.eof || c.dead || draining then None else Some c.fd_in)
          st.conns
    in
    let write_fds =
      List.filter_map
        (fun c -> if (not c.dead) && Buffer.length c.out > 0 then Some c.fd_out else None)
        st.conns
    in
    let timeout = if not (Bqueue.is_empty st.queue) then 0. else 0.1 in
    let readable, writable =
      match Unix.select read_fds write_fds [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    (match st.listen_fd with
    | Some lfd when List.memq lfd readable -> accept_ready st
    | _ -> ());
    List.iter
      (fun c -> if (not c.dead) && (not c.eof) && List.memq c.fd_in readable then read_conn st c)
      st.conns;
    List.iter
      (fun c -> if (not c.dead) && List.memq c.fd_out writable then flush_out c)
      st.conns;
    dispatch_batch st;
    reap st;
    (* Periodic metrics save: a supervised child can be killed at any moment,
       so waiting for a graceful exit would lose everything since startup. *)
    (match st.cfg.state_file with
    | Some path when now () -. st.last_save >= 1.0 ->
      st.last_save <- now ();
      Stats.record_gc st.cfg.stats;
      Stats.save_file st.cfg.stats path
    | _ -> ());
    (* The "daemon" pseudo-trace (frame I/O spans) belongs to no request,
       so no response ever drains it — flush it on a timer instead. *)
    (match st.cfg.trace_dir with
    | Some _ when now () -. st.last_trace_flush >= 1.0 ->
      st.last_trace_flush <- now ();
      collect_trace st "daemon"
    | _ -> ());
    if (draining || all_inputs_finished st) && drained st then finished := true
  done;
  (* Final flush: give slow readers one last chance to take buffered
     responses before the fds go away. *)
  List.iter (fun c -> flush_out c) (live_conns st);
  List.iter (fun c -> if c.owns_fds then kill_conn c) st.conns

let make_state cfg ?listen_fd conns =
  (* A daemon writes to peers that may vanish; without this, the first EPIPE
     kills the process instead of reaching the per-write handler above.
     Set here (not in the binary) so in-process daemons are covered too. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Restore metrics from a previous incarnation (supervised restart). *)
  Option.iter (fun path -> Stats.load_file cfg.stats path) cfg.state_file;
  (* Tracing is on exactly when there is somewhere to put the traces. *)
  Option.iter
    (fun dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Trace.enable ())
    cfg.trace_dir;
  let pool = Pool.create (max 1 cfg.workers) in
  let journal =
    match cfg.state_dir with
    | None -> None
    | Some dir ->
      (match Hjournal.create ~dir ~compact_every:cfg.journal_compact () with
      | Ok j -> Some j
      | Error m ->
        (* Serving beats durability: come up journal-less rather than not
           at all, and say so loudly. *)
        Printf.eprintf "lcmd: state dir unusable, journaling disabled: %s\n%!" m;
        None)
  in
  let engine =
    Engine.default_config ~no_timing:cfg.no_timing ?worker_id:cfg.worker_id ?journal cfg.stats
  in
  (* Rebuild journaled handles before the serve loop touches a frame:
     deltas that raced the respawn sit in the socket buffer until every
     handle is back under its original id. *)
  let t0 = now () in
  Engine.recover engine;
  (match journal with
  | Some _ when Handles.size engine.Engine.handles > 0 ->
    if not cfg.quiet then
      Printf.eprintf "lcmd: recovered %d handle(s) from journal in %.1f ms\n%!"
        (Handles.size engine.Engine.handles)
        ((now () -. t0) *. 1000.)
  | _ -> ());
  {
    cfg;
    engine;
    pool;
    queue = Bqueue.create ~capacity:cfg.queue_capacity;
    conns;
    listen_fd;
    served = 0;
    last_save = now ();
    last_trace_flush = now ();
  }

let finish st =
  Pool.shutdown st.pool;
  Atomic.set shutdown_flag false;
  (* Final trace flush: whatever is still buffered (the "daemon" I/O trace,
     spans of rejected requests) goes to its per-trace file now. *)
  (match st.cfg.trace_dir with
  | None -> ()
  | Some dir ->
    let by_trace = Hashtbl.create 8 in
    List.iter
      (fun (sp : Trace.span) ->
        Hashtbl.replace by_trace sp.Trace.trace_id
          (sp :: Option.value (Hashtbl.find_opt by_trace sp.Trace.trace_id) ~default:[]))
      (Trace.drain ());
    Hashtbl.iter
      (fun trace_id spans ->
        Prof.add st.engine.Engine.prof spans;
        try append_trace_file ~dir ~trace_id (List.rev spans) with Sys_error _ -> ())
      by_trace);
  Stats.record_gc st.cfg.stats;
  Option.iter (fun path -> Stats.save_file st.cfg.stats path) st.cfg.state_file;
  log st "drained cleanly: %d responses served" st.served;
  if not st.cfg.quiet then Stats.dump st.cfg.stats stderr

let serve_fds cfg ~fd_in ~fd_out =
  let conn =
    {
      fd_in;
      fd_out;
      reader = Frame.create ~max_frame:cfg.max_frame;
      out = Buffer.create 4096;
      writer = Frame.writer ();
      owns_fds = false;
      eof = false;
      dead = false;
      inflight = 0;
    }
  in
  let st = make_state cfg [ conn ] in
  log st "serving on fds (pool=%d, queue=%d, batch<=%d, max_frame=%d)" (Pool.size st.pool)
    cfg.queue_capacity cfg.batch_max cfg.max_frame;
  Fun.protect ~finally:(fun () -> finish st) (fun () -> serve_loop st)

let serve_unix_socket cfg ~path =
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let st = make_state cfg ~listen_fd:lfd [] in
  log st "listening on %s (pool=%d, queue=%d, batch<=%d, max_frame=%d)" path (Pool.size st.pool)
    cfg.queue_capacity cfg.batch_max cfg.max_frame;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      finish st)
    (fun () -> serve_loop st)
