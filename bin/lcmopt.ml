(* lcmopt: command-line driver for the Lazy Code Motion library.

   Subcommands:
     run       parse a program (any registered frontend), run a PRE algorithm
     analyze   print the LCM analysis predicates per block
     interp    interpret a function on given bindings
     list      list available algorithms and named workloads
     formats   list registered program frontends (miniimp, cfg, bril)
     corpus    ingest a directory of programs and optimize each function
     serve     long-lived optimization daemon (JSON-lines; see docs/PROTOCOL.md)
     request   one-shot client for a running daemon

   Exit codes: 0 success; 1 usage, input or request errors; 2 internal
   errors (unexpected exceptions). *)

module Bitvec = Lcm_support.Bitvec
module Table = Lcm_support.Table
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Dot = Lcm_cfg.Dot
module Lower = Lcm_cfg.Lower
module Parser = Lcm_ir.Parser
module Lexer = Lcm_ir.Lexer
module Expr_pool = Lcm_ir.Expr_pool
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Lcm_edge = Lcm_core.Lcm_edge
module Registry = Lcm_eval.Registry
module Suites = Lcm_eval.Suites
module Interp = Lcm_eval.Interp
module Metrics = Lcm_eval.Metrics
module Frontend = Lcm_frontend.Frontend

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Resolve a frontend: an explicit --format name wins, else the file's
   extension picks one (see `lcmopt formats`), else MiniImp. *)
let resolve_frontend ?path format =
  match format with
  | Some name ->
    (match Frontend.find name with
    | Some fe -> Ok fe
    | None ->
      Error
        (Printf.sprintf "unknown format %S; registered: %s" name (String.concat ", " Frontend.names)))
  | None ->
    Ok
      (match Option.bind path Frontend.of_extension with
      | Some fe -> fe
      | None -> Frontend.default)

(* Load a graph from a source file (any registered frontend) or a named
   workload. *)
let load ?format ~source ~func_name () =
  match source with
  | `Workload name ->
    (match Suites.find name with
    | Some w -> Ok (Suites.graph w)
    | None ->
      Error
        (Printf.sprintf "unknown workload %S; available: %s" name
           (String.concat ", " (List.map (fun w -> w.Suites.name) Suites.all))))
  | `File path ->
    Result.bind (resolve_frontend ~path format) (fun fe ->
        match read_file path with
        | exception Sys_error m -> Error m
        | text ->
          (match Frontend.parse_one fe ?func:func_name text with
          | Ok g -> Ok g
          | Error (Frontend.Parse e) -> Error e.Frontend.message
          | Error (Frontend.Pick m) -> Error m))

(* Print graphs back in the surface syntax they came from, so a `run` over
   a Bril file emits Bril the file's toolchain can consume again.
   Workloads (and resolution failures, which [load] already reported) fall
   back to the canonical CFG text. *)
let printer_of source format =
  match source with
  | `Workload _ -> Cfg.to_string
  | `File path ->
    (match resolve_frontend ~path format with
    | Ok fe -> fe.Frontend.print
    | Error _ -> Cfg.to_string)

let print_stats g =
  let s = Metrics.static_counts g in
  Printf.printf "blocks=%d instrs=%d candidate-occurrences=%d moves=%d max-pressure=%d\n" s.Metrics.blocks
    s.Metrics.instrs s.Metrics.candidate_occurrences s.Metrics.copies_and_moves (Metrics.max_pressure g)

(* ---- run ---- *)

module Pass = Lcm_core.Pass
module Trace = Lcm_obs.Trace
module Prof = Lcm_obs.Prof

let run_cmd source func_name format algorithm simplify dot_path quiet trace_path profile =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    (match Registry.find algorithm with
    | None ->
      Printf.eprintf "unknown algorithm %S; see `lcmopt list`\n" algorithm;
      1
    | Some entry ->
      let observing = trace_path <> None || profile in
      if observing then Trace.enable ();
      let pipe =
        if simplify then Pass.Pipeline.append entry.Registry.pipeline [ Pass.simplify ]
        else entry.Registry.pipeline
      in
      let g', _reports =
        Trace.in_trace ~trace_id:(Trace.mint_id ()) "request" (fun () ->
            Pass.Pipeline.run Pass.default_ctx pipe g)
      in
      (if observing then begin
         let spans = Trace.drain () in
         Trace.disable ();
         (match trace_path with
         | Some path ->
           let oc = open_out path in
           output_string oc (Trace.to_chrome spans);
           close_out oc;
           Printf.eprintf "wrote %s (%d spans)\n" path (List.length spans)
         | None -> ());
         if profile then begin
           let p = Prof.create () in
           Prof.add p spans;
           Format.printf "%a@." Prof.pp p
         end
       end);
      if not quiet then begin
        let pp = printer_of source format in
        print_endline "== before ==";
        print_endline (pp g);
        print_endline "== after ==";
        print_endline (pp g')
      end;
      print_string "before: ";
      print_stats g;
      print_string "after:  ";
      print_stats g';
      (match dot_path with
      | Some path ->
        Dot.write_file path g';
        Printf.printf "wrote %s\n" path
      | None -> ());
      0)

(* ---- analyze ---- *)

let analyze_cmd source func_name format =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    print_endline (Cfg.to_string g);
    let a = Lcm_edge.analyze g in
    let pool = a.Lcm_edge.pool in
    Printf.printf "\ncandidate expressions:\n";
    Expr_pool.iter (fun i e -> Printf.printf "  [%d] %s\n" i (Lcm_ir.Expr.to_string e)) pool;
    let t =
      Table.create [ "block"; "ANTLOC"; "COMP"; "TRANSP"; "AVIN"; "AVOUT"; "ANTIN"; "ANTOUT"; "LATERIN" ]
    in
    let cell v = Format.asprintf "%a" Bitvec.pp v in
    List.iter
      (fun l ->
        Table.add_row t
          [
            Label.to_string l;
            cell (Local.antloc a.Lcm_edge.local l);
            cell (Local.comp a.Lcm_edge.local l);
            cell (Local.transp a.Lcm_edge.local l);
            cell (a.Lcm_edge.avail.Avail.avin l);
            cell (a.Lcm_edge.avail.Avail.avout l);
            cell (a.Lcm_edge.antic.Antic.antin l);
            cell (a.Lcm_edge.antic.Antic.antout l);
            cell (a.Lcm_edge.laterin l);
          ])
      (Cfg.labels g);
    print_newline ();
    Table.print t;
    let show_edge ((p, b), set) =
      Printf.printf "  %s -> %s : %s\n" (Label.to_string p) (Label.to_string b)
        (Format.asprintf "%a" Bitvec.pp set)
    in
    let show_block (b, set) =
      Printf.printf "  %s : %s\n" (Label.to_string b) (Format.asprintf "%a" Bitvec.pp set)
    in
    print_endline "INSERT (edges):";
    List.iter show_edge a.Lcm_edge.insert;
    print_endline "DELETE (blocks):";
    List.iter show_block a.Lcm_edge.delete;
    print_endline "COPY (blocks):";
    List.iter show_block a.Lcm_edge.copy;
    0

(* ---- ssa ---- *)

let ssa_cmd source func_name format value_number =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    let ssa = Lcm_ssa.Ssa.of_cfg g in
    let ssa, stats =
      if value_number then begin
        let ssa', s = Lcm_ssa.Dvnt.run ssa in
        (ssa', Some s)
      end
      else (ssa, None)
    in
    Format.printf "%a@." Lcm_ssa.Ssa.pp ssa;
    Printf.printf "%d phi functions\n" (Lcm_ssa.Ssa.num_phis ssa);
    (match stats with
    | Some s ->
      Printf.printf "dvnt: %d computations replaced, %d phis simplified\n"
        s.Lcm_ssa.Dvnt.exprs_replaced s.Lcm_ssa.Dvnt.phis_simplified
    | None -> ());
    (match Lcm_ssa.Ssa.check ssa with
    | Ok () -> 0
    | Error m ->
      Printf.eprintf "ssa check failed: %s\n" m;
      1)

(* ---- interp ---- *)

let parse_binding s =
  match String.index_opt s '=' with
  | Some i ->
    let name = String.sub s 0 i in
    let value = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt value with
    | Some v -> Ok (name, v)
    | None -> Error (Printf.sprintf "bad binding %S (expected name=int)" s))
  | None -> Error (Printf.sprintf "bad binding %S (expected name=int)" s)

let interp_cmd source func_name format bindings fuel =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest ->
        (match parse_binding s with
        | Ok b -> collect (b :: acc) rest
        | Error m -> Error m)
    in
    (match collect [] bindings with
    | Error m ->
      prerr_endline m;
      1
    | Ok env ->
      let pool = Cfg.candidate_pool g in
      let o = Interp.run ~fuel ~pool ~env g in
      List.iter (fun v -> Printf.printf "print: %d\n" v) o.Interp.prints;
      (match o.Interp.return_value with
      | Some v -> Printf.printf "return: %d\n" v
      | None -> print_endline "return: (none)");
      Printf.printf "candidate evaluations: %d\n" (Interp.total_evals o);
      Printf.printf "instructions executed: %d\n" o.Interp.steps;
      if o.Interp.undefined_reads <> [] then
        Printf.printf "warning: read before write: %s\n" (String.concat ", " o.Interp.undefined_reads);
      if not o.Interp.terminated then begin
        (* Keep the code word stable: scripts and the protocol's
           [fuel_exhausted] error grep for it (fuel ran out, as opposed to a
           wall-clock [deadline] the daemon enforces). *)
        Printf.eprintf
          "error: fuel_exhausted: fuel (%d) spent after %d instructions before reaching the exit \
           (non-terminating input? raise --fuel to allow more steps)\n"
          fuel o.Interp.steps;
        1
      end
      else 0)

(* ---- trace ---- *)

let trace_cmd source func_name format decisions =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    let pool = Cfg.candidate_pool g in
    let parse_decisions s =
      let ok = ref true in
      let ds =
        List.filter_map
          (fun c ->
            match c with
            | '0' -> Some false
            | '1' -> Some true
            | _ ->
              ok := false;
              None)
          (List.init (String.length s) (String.get s))
      in
      if !ok then Some ds else None
    in
    (match parse_decisions decisions with
    | None ->
      prerr_endline "decisions must be a string of 0s and 1s (1 = take the then-arm)";
      1
    | Some ds ->
      let r = Lcm_eval.Trace.replay ~pool g ds in
      Printf.printf "path: %s\n"
        (String.concat " -> " (List.map Label.to_string r.Lcm_eval.Trace.blocks));
      Printf.printf "completed: %b\n" r.Lcm_eval.Trace.completed;
      Expr_pool.iter
        (fun i e ->
          if r.Lcm_eval.Trace.eval_counts.(i) > 0 then
            Printf.printf "  %-16s evaluated %d times\n" (Lcm_ir.Expr.to_string e)
              r.Lcm_eval.Trace.eval_counts.(i))
        pool;
      Printf.printf "total candidate evaluations: %d\n" (Lcm_eval.Trace.grand_total r);
      if r.Lcm_eval.Trace.completed then 0 else 1)

(* ---- compare ---- *)

let compare_cmd source func_name format runs fuel =
  match load ?format ~source ~func_name () with
  | Error m ->
    prerr_endline m;
    1
  | Ok g ->
    let pool = Cfg.candidate_pool g in
    let inputs =
      (* Free variables: read somewhere, defined nowhere. *)
      let defined = Hashtbl.create 16 in
      List.iter
        (fun l ->
          List.iter
            (fun i -> Option.iter (fun v -> Hashtbl.replace defined v ()) (Lcm_ir.Instr.defs i))
            (Cfg.instrs g l))
        (Cfg.labels g);
      List.filter (fun v -> not (Hashtbl.mem defined v)) (Cfg.all_vars g)
    in
    let rng = Lcm_support.Prng.of_int 2026 in
    let envs =
      List.init runs (fun _ -> List.map (fun v -> (v, Lcm_support.Prng.int_in rng 0 8)) inputs)
    in
    let t = Table.create [ "algorithm"; "dynamic evals"; "static occurrences"; "instrs"; "blocks" ] in
    List.iter
      (fun (e : Registry.entry) ->
        let g' = e.Registry.run g in
        let evals =
          match Metrics.dynamic_evals ~fuel ~pool ~envs g' with
          | Some n -> string_of_int n
          | None -> Printf.sprintf "did not terminate (within %d fuel)" fuel
        in
        let s = Metrics.static_counts g' in
        Table.add_row t
          [
            e.Registry.name;
            evals;
            string_of_int s.Metrics.candidate_occurrences;
            string_of_int s.Metrics.instrs;
            string_of_int s.Metrics.blocks;
          ])
      Registry.all;
    Printf.printf "inputs: %s (bound randomly over %d runs)\n" (String.concat ", " inputs) runs;
    Table.print t;
    0

(* ---- serve ---- *)

module Daemon = Lcm_server.Daemon
module Protocol = Lcm_server.Protocol
module Frame = Lcm_server.Frame
module Json = Lcm_server.Json
module Supervisor = Lcm_server.Supervisor
module Retry = Lcm_server.Retry
module Router = Lcm_shard.Router

let write_pid_file path =
  try
    let oc = open_out path in
    Printf.fprintf oc "%d\n" (Unix.getpid ());
    close_out oc
  with Sys_error m -> Printf.eprintf "cannot write pid file: %s\n" m

let serve_cmd stdio socket queue batch max_frame deadline_ms workers no_timing quiet supervise
    max_restarts restart_backoff_ms restart_cap_ms state_file pid_file trace_dir shards
    cache_entries state_dir journal_compact =
  match (stdio, socket) with
  | false, None ->
    prerr_endline "serve: provide --stdio or --socket PATH";
    1
  | true, Some _ ->
    prerr_endline "serve: provide either --stdio or --socket, not both";
    1
  | _ ->
    let workers =
      match workers with
      | None -> Lcm_support.Pool.default_size ()
      | Some w ->
        let cores = Domain.recommended_domain_count () in
        let w' = Lcm_support.Pool.clamp_workers ~cores w in
        if w' <> w && not quiet then
          Printf.eprintf "serve: --workers %d exceeds the host's %d cores; using %d\n%!" w cores w';
        w'
    in
    let daemon_cfg ~state_file =
      {
        (Daemon.default_config ()) with
        Daemon.queue_capacity = queue;
        batch_max = batch;
        max_frame;
        default_deadline_ms = deadline_ms;
        workers;
        no_timing;
        quiet;
        (* A standalone binary may die of chaos (that is what the
           supervisor — or the shard router — is for); in-process daemons
           never get this. *)
        hard_faults = true;
        state_file;
        state_dir;
        journal_compact;
        trace_dir;
      }
    in
    let serve ~state_file () =
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      if shards > 0 then begin
        (* Sharded mode: this process routes; the daemons are its forked
           children.  State files and chaos epochs are per worker, managed
           by the router, so --state-file only names the template's. *)
        let drain = Sys.Signal_handle (fun _ -> Router.request_shutdown ()) in
        Sys.set_signal Sys.sigterm drain;
        Sys.set_signal Sys.sigint drain;
        let rcfg =
          {
            (Router.default_config ()) with
            Router.shards;
            cache_capacity = cache_entries;
            (* The router derives a per-worker journal directory from
               --state-dir; the template's own state_dir is overridden. *)
            state_dir;
            daemon =
              { (daemon_cfg ~state_file:None) with Daemon.quiet = true; state_dir = None };
            quiet;
          }
        in
        match socket with
        | Some path -> Router.serve_unix_socket rcfg ~path
        | None -> Router.serve_fds rcfg ~fd_in:Unix.stdin ~fd_out:Unix.stdout
      end
      else begin
        let drain = Sys.Signal_handle (fun _ -> Daemon.request_shutdown ()) in
        Sys.set_signal Sys.sigterm drain;
        Sys.set_signal Sys.sigint drain;
        let cfg = daemon_cfg ~state_file in
        match socket with
        | Some path -> Daemon.serve_unix_socket cfg ~path
        | None -> Daemon.serve_fds cfg ~fd_in:Unix.stdin ~fd_out:Unix.stdout
      end
    in
    if supervise then begin
      let state_file =
        match state_file with
        | Some s -> s
        | None ->
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "lcmd-%d.state" (Unix.getpid ()))
      in
      let scfg =
        {
          (Supervisor.default_config ~state_file) with
          Supervisor.max_restarts;
          backoff_base_ms = restart_backoff_ms;
          backoff_cap_ms = restart_cap_ms;
          child_pid_file = pid_file;
          quiet;
        }
      in
      Supervisor.run scfg (serve ~state_file:(Some state_file))
    end
    else begin
      Option.iter write_pid_file pid_file;
      serve ~state_file ();
      0
    end

(* ---- request ---- *)

(* Wait until [fd] is readable, or the absolute [deadline] passes. *)
let rec wait_readable fd deadline =
  match deadline with
  | None -> true
  | Some d ->
    let remaining = d -. Unix.gettimeofday () in
    if remaining <= 0. then false
    else (
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> wait_readable fd deadline
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd deadline)

let read_response_frame ?deadline fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if not (wait_readable fd deadline) then `Timeout
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | n ->
        (match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | Some i ->
          Buffer.add_subbytes buf chunk 0 i;
          `Frame (Buffer.contents buf)
        | None ->
          Buffer.add_subbytes buf chunk 0 n;
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof
  in
  go ()

let request_cmd socket file workload func_name format algorithm simplify deadline_ms retries
    backoff_ms timeout_ms op trace_id =
  let build_run () =
    match (file, workload) with
    | Some _, Some _ -> Error "provide either a FILE or --workload, not both"
    | None, None -> Error "provide a FILE or --workload NAME (or use --stats/--ping)"
    | Some path, None ->
      (try
         Result.map
           (fun fe ->
             [
               ("program", Json.String (read_file path));
               ("format", Json.String fe.Frontend.name);
             ]
             @ (match func_name with Some f -> [ ("function", Json.String f) ] | None -> []))
           (resolve_frontend ~path format)
       with Sys_error m -> Error m)
    | None, Some w ->
      (match Suites.find w with
      | Some w ->
        Ok
          [
            ("program", Json.String (Lcm_cfg.Cfg_text.to_string (Suites.graph w)));
            ("format", Json.String "cfg");
          ]
      | None ->
        Error
          (Printf.sprintf "unknown workload %S; available: %s" w
             (String.concat ", " (List.map (fun w -> w.Suites.name) Suites.all))))
  in
  let fields =
    match op with
    | `Stats -> Ok [ ("op", Json.String "stats") ]
    | `Ping -> Ok [ ("op", Json.String "ping") ]
    | `Profile -> Ok [ ("op", Json.String "profile") ]
    | `Run ->
      Result.map
        (fun body ->
          [ ("op", Json.String "run"); ("algorithm", Json.String algorithm) ]
          @ body
          @ if simplify then [ ("simplify", Json.Bool true) ] else [])
        (build_run ())
  in
  match fields with
  | Error m ->
    prerr_endline m;
    1
  | Ok fields ->
    (* One trace id for the whole command: every retry reuses it, so a
       request that crosses retries (and daemon restarts) reconstructs as
       one span tree in the daemon's --trace-dir file. *)
    let tid =
      match trace_id with Some t -> t | None -> Printf.sprintf "cli-%d" (Unix.getpid ())
    in
    let fields =
      [ ("id", Json.Int (Unix.getpid ())); ("trace_id", Json.String tid) ]
      @ fields
      @ match deadline_ms with Some d -> [ ("deadline_ms", Json.Float d) ] | None -> []
    in
    let frame_str = Json.to_string (Json.Obj fields) in
    (* The daemon may vanish between connect and write; that must be a
       retryable error on this side, not a SIGPIPE death. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let policy =
      {
        Retry.retries;
        base_ms = backoff_ms;
        cap_ms = Float.max backoff_ms 5000.;
        budget_ms = timeout_ms;
      }
    in
    let rng = Lcm_support.Prng.of_int (Unix.getpid ()) in
    let start = Unix.gettimeofday () in
    let deadline_abs = Option.map (fun b -> start +. (b /. 1000.)) timeout_ms in
    (* One attempt: connect, send, wait for the response line.  [`Transient]
       covers failures a healthy daemon would not produce (connection
       refused, closed mid-exchange) — worth retrying against a supervised
       daemon that is restarting.  A typed [overloaded]/[shutting_down]
       response is retryable by contract; other error responses are final. *)
    let attempt_once () =
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) -> `Transient (Unix.error_message e)
      | fd ->
        Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        (match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error (e, _, _) ->
          `Transient
            (Printf.sprintf "cannot connect to %s: %s (is `lcmopt serve` running?)" socket
               (Unix.error_message e))
        | () ->
          (match Frame.write_frame fd frame_str with
          | exception Unix.Unix_error (e, _, _) -> `Transient ("send failed: " ^ Unix.error_message e)
          | () ->
            (match read_response_frame ?deadline:deadline_abs fd with
            | `Timeout -> `Timeout
            | `Eof -> `Transient "daemon closed the connection without a response"
            | `Frame frame ->
              (match Json.member "status" (Json.parse frame) with
              | Some (Json.String "ok") -> `Ok frame
              | _ ->
                let code =
                  match Json.member "code" (Json.parse frame) with
                  | Some (Json.String c) -> c
                  | _ -> ""
                in
                if Retry.retryable_code code then `Server_retryable (frame, code)
                else `Final frame))))
    in
    let rec go attempt =
      let retry_or ~reason ~give_up =
        let elapsed_ms = (Unix.gettimeofday () -. start) *. 1000. in
        match Retry.next_delay_ms policy rng ~attempt ~elapsed_ms with
        | None -> give_up ()
        | Some d ->
          Printf.eprintf "request: %s; retry %d/%d in %.0f ms\n%!" reason (attempt + 1)
            policy.Retry.retries d;
          Unix.sleepf (d /. 1000.);
          go (attempt + 1)
      in
      match attempt_once () with
      | `Ok frame ->
        print_endline frame;
        (* Serving metadata (sharded daemons echo who answered): report it
           on stderr so stdout stays exactly the response frame. *)
        (let j = Json.parse frame in
         match (Option.bind (Json.member "worker" j) Json.to_int_opt, Json.member "cache" j) with
         | Some w, Some (Json.String "hit") ->
           Printf.eprintf "request: served from the router cache (computed by worker %d)\n%!" w
         | Some w, _ -> Printf.eprintf "request: served by worker %d\n%!" w
         | None, Some (Json.String "hit") -> Printf.eprintf "request: served from the router cache\n%!"
         | None, _ -> ());
        0
      | `Final frame ->
        print_endline frame;
        1
      | `Timeout ->
        prerr_endline "request: no response within the --timeout-ms budget";
        1
      | `Transient reason ->
        retry_or ~reason ~give_up:(fun () ->
            prerr_endline ("request: " ^ reason);
            1)
      | `Server_retryable (frame, code) ->
        retry_or ~reason:("server answered " ^ code) ~give_up:(fun () ->
            print_endline frame;
            1)
    in
    go 0

(* ---- formats ---- *)

let formats_cmd () =
  print_endline "frontends:";
  List.iter
    (fun (fe : Frontend.t) ->
      Printf.printf "  %-10s %-14s %s\n" fe.Frontend.name
        (String.concat "," fe.Frontend.extensions)
        fe.Frontend.description)
    Frontend.all;
  0

(* ---- corpus ---- *)

let corpus_cmd dir format =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "corpus: %s is not a directory\n" dir;
    1
  end
  else begin
    let fe =
      match format with
      | None -> Ok None
      | Some name -> Result.map Option.some (resolve_frontend (Some name))
    in
    match fe with
    | Error m ->
      prerr_endline m;
      1
    | Ok fe ->
      let module Corpus = Lcm_eval.Corpus in
      let ing = Corpus.ingest_dir ?format:fe dir in
      List.iter (fun (f, m) -> Printf.eprintf "corpus: skipping %s: %s\n" f m) ing.Corpus.errors;
      let reports = Corpus.process ing.Corpus.jobs in
      let t = Table.create [ "function"; "blocks"; "exprs"; "insertions"; "deletions"; "digest" ] in
      List.iter
        (fun (r : Corpus.report) ->
          Table.add_row t
            [
              r.Corpus.job;
              string_of_int r.Corpus.blocks;
              string_of_int r.Corpus.exprs;
              string_of_int r.Corpus.insertions;
              string_of_int r.Corpus.deletions;
              String.sub r.Corpus.digest 0 12;
            ])
        reports;
      Table.print t;
      Printf.printf "%d functions (%d duplicates skipped, %d files failed)\n"
        (List.length ing.Corpus.jobs) ing.Corpus.duplicates
        (List.length ing.Corpus.errors);
      if ing.Corpus.errors = [] then 0 else 1
  end

(* ---- list ---- *)

let list_cmd () =
  print_endline "algorithms:";
  List.iter
    (fun (e : Registry.entry) -> Printf.printf "  %-16s %s\n" e.Registry.name e.Registry.description)
    Registry.all;
  print_endline "\nworkloads (usable via --workload):";
  List.iter (fun w -> Printf.printf "  %-20s %s\n" w.Suites.name w.Suites.description) Suites.all;
  0

(* ---- cmdliner wiring ---- *)

open Cmdliner

let source_term =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniImp source file.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Use a named built-in workload instead of a file.")
  in
  let combine file workload =
    match (file, workload) with
    | Some f, None -> Ok (`File f)
    | None, Some w -> Ok (`Workload w)
    | None, None -> Error "provide a FILE or --workload NAME"
    | Some _, Some _ -> Error "provide either a FILE or --workload, not both"
  in
  Term.(const combine $ file $ workload)

let func_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "function" ] ~docv:"NAME" ~doc:"Function to use when the file defines several.")

let format_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "format" ] ~docv:"NAME"
        ~doc:
          "Frontend to parse the file with (see `lcmopt formats`); default: by file extension, \
           MiniImp otherwise.")

let with_source f source func_name format =
  match source with
  | Ok s -> f s func_name format
  | Error m ->
    prerr_endline m;
    1

let run_term =
  let algorithm =
    Arg.(
      value & opt string "lcm-edge"
      & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc:"Transformation to run (see `lcmopt list`).")
  in
  let simplify =
    Arg.(value & flag & info [ "simplify" ] ~doc:"Merge straight-line blocks afterwards.")
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH" ~doc:"Write the result as Graphviz.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print statistics.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record a span trace of the run and write it to $(docv) as a Chrome trace_event JSON \
             document (load with chrome://tracing or Perfetto).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print a per-phase profile (time, allocation, solver iterations) after the run.")
  in
  Term.(
    const (fun source func_name format algorithm simplify dot quiet trace profile ->
        with_source
          (fun s f fmt -> run_cmd s f fmt algorithm simplify dot quiet trace profile)
          source func_name format)
    $ source_term $ func_term $ format_term $ algorithm $ simplify $ dot $ quiet $ trace $ profile)

let analyze_term =
  Term.(
    const (fun source func_name format ->
        with_source (fun s f fmt -> analyze_cmd s f fmt) source func_name format)
    $ source_term $ func_term $ format_term)

let trace_term =
  let decisions =
    Arg.(
      value & opt string ""
      & info [ "d"; "decisions" ] ~docv:"BITS" ~doc:"Branch decisions, e.g. 0110 (1 = then-arm).")
  in
  Term.(
    const (fun source func_name format ds ->
        with_source (fun s f fmt -> trace_cmd s f fmt ds) source func_name format)
    $ source_term $ func_term $ format_term $ decisions)

let compare_term =
  let runs = Arg.(value & opt int 10 & info [ "runs" ] ~docv:"N" ~doc:"Random runs to sum over.") in
  let fuel =
    Arg.(
      value & opt int 100_000
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Interpreter step budget per run; non-terminating inputs fail fast instead of hanging.")
  in
  Term.(
    const (fun source func_name format runs fuel ->
        with_source (fun s f fmt -> compare_cmd s f fmt runs fuel) source func_name format)
    $ source_term $ func_term $ format_term $ runs $ fuel)

let ssa_term =
  let value_number =
    Arg.(value & flag & info [ "vn" ] ~doc:"Also run dominator-based value numbering.")
  in
  Term.(
    const (fun source func_name format vn ->
        with_source (fun s f fmt -> ssa_cmd s f fmt vn) source func_name format)
    $ source_term $ func_term $ format_term $ value_number)

let interp_term =
  let bindings =
    Arg.(value & opt_all string [] & info [ "b"; "bind" ] ~docv:"VAR=INT" ~doc:"Initial variable binding.")
  in
  let fuel =
    Arg.(value & opt int 1_000_000 & info [ "fuel" ] ~docv:"N" ~doc:"Execution step budget.")
  in
  Term.(
    const (fun source func_name format bindings fuel ->
        with_source (fun s f fmt -> interp_cmd s f fmt bindings fuel) source func_name format)
    $ source_term $ func_term $ format_term $ bindings $ fuel)

let serve_term =
  let stdio =
    Arg.(value & flag & info [ "stdio" ] ~doc:"Serve a single peer on stdin/stdout (tests, CI, benchmarks).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let queue =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue high-water mark; further requests are rejected as overloaded.")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N" ~doc:"Maximum requests dispatched to the domain pool as one batch.")
  in
  let max_frame =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Frame size ceiling; longer lines are rejected as oversized.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Default per-request deadline when the request carries none.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Domain-pool size, at most the host's core count (default: \\$LCM_DOMAINS or the \
             host's core count, capped at 8).")
  in
  let no_timing =
    Arg.(value & flag & info [ "no-timing" ] ~doc:"Omit timing fields from responses (golden tests).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No stderr logging or shutdown stats dump.") in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the daemon as a supervised child: restart it with capped exponential backoff when \
             it dies abnormally, carrying the metrics registry across restarts via --state-file.")
  in
  let max_restarts =
    Arg.(
      value & opt int 10
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Give up after $(docv) consecutive quick failures under --supervise; a child that \
             stays up a few seconds resets the count.")
  in
  let restart_backoff_ms =
    Arg.(
      value & opt float 100.
      & info [ "restart-backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base restart delay under --supervise; doubles per consecutive failure up to \
             --restart-cap-ms.")
  in
  let restart_cap_ms =
    Arg.(
      value & opt float 5000.
      & info [ "restart-cap-ms" ] ~docv:"MS"
          ~doc:
            "Ceiling on the restart backoff under --supervise.  The default favours not \
             thrashing a crash-looping host; lower it when availability under frequent \
             crashes matters more than restart churn.")
  in
  let state_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-file" ] ~docv:"PATH"
          ~doc:
            "Persist the metrics registry to $(docv) (restored at startup, saved every second). \
             Defaults to a temp file under --supervise.")
  in
  let pid_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "pid-file" ] ~docv:"PATH"
          ~doc:
            "Write the pid of the serving process to $(docv); under --supervise this is the current \
             child, rewritten after every restart.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Enable request tracing: every request's span tree is appended to \
             $(docv)/<trace_id>.trace.json in Chrome trace_event format.  Retries and supervised \
             restarts that reuse a client trace_id append to the same file.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the daemon over $(docv) worker processes behind a routing front: requests are \
             consistent-hashed by canonical program digest, results are cached content-addressed \
             at the router, crashed workers are respawned and their in-flight requests replayed \
             on a sibling.  0 (the default) serves from a single in-process daemon.")
  in
  let cache_entries =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"Router result-cache capacity in entries under --shards; 0 disables caching.")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Make retained handles crash-durable: every retain and accepted delta is \
             append-fsynced to a per-handle write-ahead journal under $(docv), and a respawned \
             process (or shard worker, which journals under $(docv)/worker-<i>) rebuilds every \
             handle under its original id before serving.  Off by default.")
  in
  let journal_compact =
    Arg.(
      value & opt int 64
      & info [ "journal-compact" ] ~docv:"N"
          ~doc:
            "Under --state-dir, compact a handle's journal to a single snapshot record after \
             $(docv) appended patches — bounds recovery replay time per handle.")
  in
  Term.(
    const serve_cmd $ stdio $ socket $ queue $ batch $ max_frame $ deadline $ workers $ no_timing
    $ quiet $ supervise $ max_restarts $ restart_backoff_ms $ restart_cap_ms $ state_file
    $ pid_file $ trace_dir $ shards $ cache_entries $ state_dir $ journal_compact)

let request_term =
  let socket =
    Arg.(
      value
      & opt string "/tmp/lcmd.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of the running daemon.")
  in
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniImp or .cfg source file.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Use a named built-in workload instead of a file.")
  in
  let algorithm =
    Arg.(
      value & opt string "lcm-edge"
      & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc:"Transformation to run (see `lcmopt list`).")
  in
  let simplify =
    Arg.(value & flag & info [ "simplify" ] ~doc:"Merge straight-line blocks afterwards.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline in milliseconds.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Query the daemon's metrics registry instead.") in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check instead of a run request.") in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ] ~doc:"Query the daemon's per-phase profile aggregates instead.")
  in
  let trace_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Trace id attached to the request (default: cli-<pid>).  Reused verbatim across \
             retries so one logical request reconstructs as one trace.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to $(docv) times on connection failures and on typed overloaded or \
             shutting_down responses, with capped jittered exponential backoff.")
  in
  let backoff =
    Arg.(
      value & opt float 100.
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff before the first retry; doubles per attempt, capped at 5000 ms.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Overall wall-clock budget across all attempts, including backoff sleeps and waiting \
             for the response.")
  in
  Term.(
    const (fun socket file workload func format algorithm simplify deadline stats ping profile
               retries backoff timeout trace_id ->
        let op =
          if stats then `Stats
          else if ping then `Ping
          else if profile then `Profile
          else `Run
        in
        request_cmd socket file workload func format algorithm simplify deadline retries backoff
          timeout op trace_id)
    $ socket $ file $ workload $ func_term $ format_term $ algorithm $ simplify $ deadline $ stats
    $ ping $ profile $ retries $ backoff $ timeout $ trace_id)

let corpus_term =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Directory of programs.") in
  let format =
    Arg.(
      value
      & opt (some string) None
      & info [ "format" ] ~docv:"NAME"
          ~doc:"Only ingest this frontend's files (default: every registered extension).")
  in
  Term.(const corpus_cmd $ dir $ format)

let cmd_of name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  (* Chaos configuration is process-wide and read once: a bad spec should
     fail loudly at startup, not be silently ignored mid-load-test. *)
  (match Lcm_support.Fault.install_from_env () with
  | Ok () -> ()
  | Error m ->
    Printf.eprintf "bad %s: %s\n" Lcm_support.Fault.env_var m;
    exit 1);
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "lcmopt" ~version:"1.0.0" ~doc:"Lazy Code Motion playground" in
  let tree =
    Cmd.group ~default info
      [
        cmd_of "run" "run a PRE transformation on a function" run_term;
        cmd_of "analyze" "print the LCM data-flow predicates" analyze_term;
        cmd_of "ssa" "print the (pruned) SSA form" ssa_term;
        cmd_of "compare" "run every algorithm and compare counts" compare_term;
        cmd_of "trace" "replay one decision path and count evaluations" trace_term;
        cmd_of "interp" "interpret a function" interp_term;
        cmd_of "list" "list algorithms and workloads" Term.(const list_cmd $ const ());
        cmd_of "formats" "list registered program frontends" Term.(const formats_cmd $ const ());
        cmd_of "corpus" "ingest a directory of programs and optimize each function" corpus_term;
        cmd_of "serve" "serve optimization requests over JSON-lines frames" serve_term;
        cmd_of "request" "send one request to a running daemon" request_term;
      ]
  in
  (* Exit codes: 0 success, 1 usage/parse/request errors (including
     cmdliner's own CLI errors via ~term_err), 2 internal errors. *)
  match Cmd.eval' ~term_err:1 tree with
  | code -> exit code
  | exception e ->
    Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
    exit 2
