(* EXP-TRACE: cost of the observability layer, and end-to-end trace
   reconstruction across client retries.

   Two questions, answered in one experiment:

   1. What does tracing cost?  The lcm-edge pipeline runs over random CFGs
      at three sizes, alternating between collection disabled (the
      production state: every probe is one atomic load) and enabled (every
      solve/pass/request span recorded and drained into a profile).  The
      requirement is < 3% overhead at p95 with tracing ON; the disabled
      probe is also microbenchmarked directly (ns per probe, expected to
      be nanoseconds — i.e. free).

   2. Does a trace survive the failure path it exists for?  A daemon is
      spawned with --trace-dir and an LCM_CHAOS queue.reject fault chosen
      (deterministically, same PRNG as the daemon) to reject the first
      admission and accept the second.  The client resends under the same
      trace_id — the `lcmopt request --retries` contract — and the
      per-trace Chrome file must then contain one well-formed span forest
      for the whole logical request: both admissions, the rejection, and
      the full LCM cascade of the attempt that ran.

   Full mode writes BENCH_trace.json; --quick (CI) runs one size with few
   iterations plus the retry check, asserting instead of reporting. *)

module Table = Lcm_support.Table
module Fault = Lcm_support.Fault
module Arena = Lcm_support.Arena
module Pool = Lcm_support.Pool
module Cfg = Lcm_cfg.Cfg
module Corpus = Lcm_eval.Corpus
module Registry = Lcm_eval.Registry
module Pass = Lcm_core.Pass
module Trace = Lcm_obs.Trace
module Prof = Lcm_obs.Prof
module Json = Lcm_server.Json
module Frame = Lcm_server.Frame

let now = Unix.gettimeofday

(* ---- overhead: traced vs disabled ---- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. q)))

type size_result = {
  blocks : int;
  iters : int;
  off_p50_ms : float;
  off_p95_ms : float;
  on_p50_ms : float;
  on_p95_ms : float;
  spans_per_run : int;
  prof : Prof.t;  (* per-phase breakdown accumulated over the traced runs *)
  alloc_heap_w : float;  (* words/request, historical heap path *)
  alloc_arena_w : float;  (* words/request, arena path (serving steady state) *)
  alloc_analyze_heap_w : float;  (* words per LCM cascade (analyze), heap path *)
  alloc_analyze_arena_w : float;  (* words per LCM cascade (analyze), arena path *)
  arena_misses_delta : int;  (* pool misses across the measured window; 0 = warm *)
  prof_arena : Prof.t;  (* per-phase breakdown of traced arena-backed runs *)
  print_w_per_kb : float;  (* Cfg.to_string, words per KB of text printed *)
  decode_w_per_kb : float;  (* Json.parse of a run request frame, words per KB of frame *)
  bril_parse_w_per_kb : float;  (* Bril.parse_program of the graph, words per KB of Bril text *)
  cfg_parse_w_per_kb : float;  (* Cfg_text.parse of the graph's canonical text, words per KB *)
  miniimp_parse_w_per_kb : float;  (* Frontend MiniImp parse of Gencfg source, pool included, words per KB *)
  delta_incr_w : float;  (* analyze_incr of one single-block body delta, capture included, arena path *)
  delta_e2e_w : float;  (* the same delta end to end: copy, patch, solve, transform, counts, print, encode *)
  delta_pool_w : float;  (* a single-block delta adding a candidate the pool lacks, end to end *)
  delta_phases : (string * float * float) list;  (* the delta's analyze_incr by phase: name, us, words *)
}

let overhead_p95 r = (r.on_p95_ms /. r.off_p95_ms) -. 1.

(* The phases a delta's report names, each a span or a sum of spans. *)
let delta_phase_groups =
  [
    ("lcm.pool", [ "lcm.pool" ]);
    ("lcm.local", [ "lcm.local" ]);
    ("lcm.up_safety", [ "lcm.up_safety" ]);
    ("lcm.down_safety", [ "lcm.down_safety" ]);
    ("tail", [ "lcm.earliest"; "lcm.delay"; "lcm.latest"; "lcm.live"; "lcm.copy" ]);
    ("analyze_incr", [ "delta" ]);
  ]
let word_bytes = float_of_int (Sys.word_size / 8)

(* Steady-state allocation per request: warm first (arena pools fill on the
   first requests of a shape), then measure a window of repeats.  The
   [Gc.minor] fences matter: in native code [Gc.allocated_bytes] under-counts
   in-flight minor allocation between collections and trues up in large
   lumps when one fires, so small per-request numbers read without the
   fences are noise. *)
let alloc_per_request ~warm ~iters run =
  for _ = 1 to warm do
    run ()
  done;
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    run ()
  done;
  Gc.minor ();
  (Gc.allocated_bytes () -. a0) /. float_of_int iters /. word_bytes

(* Per-request alloc words of one profiled phase; None when absent. *)
let phase_alloc prof name =
  List.find_opt (fun (r : Prof.row) -> r.Prof.name = name) (Prof.rows prof)
  |> Option.map (fun (r : Prof.row) ->
         if r.Prof.count = 0 then 0. else r.Prof.alloc_w /. float_of_int r.Prof.count)

(* MiniImp source of about [blocks] lowered blocks: Gencfg functions'
   bodies in sequence, as the serving benchmark writes its programs. *)
let miniimp_source ~blocks =
  let rng = Lcm_support.Prng.of_int (2000 + blocks) in
  let params = { Lcm_eval.Gencfg.num_stmts = 6; max_depth = 2; num_vars = 5; loop_bound = 2 } in
  let rec grow acc est =
    if est >= blocks then List.concat (List.rev acc)
    else begin
      let f = Lcm_eval.Gencfg.random_func ~params rng in
      let body = List.filter (function Lcm_ir.Ast.Return _ -> false | _ -> true) f.Lcm_ir.Ast.body in
      grow (body :: acc) (est + Cfg.num_blocks (Lcm_cfg.Lower.func f) - 2)
    end
  in
  let body = grow [] 0 @ [ Lcm_ir.Ast.Return (Lcm_ir.Ast.Var "a") ] in
  Lcm_ir.Ast.to_string [ { Lcm_ir.Ast.name = "f"; params = Lcm_eval.Gencfg.func_inputs params; body } ]

(* One timed run of the lcm-edge pipeline.  The graph is re-parsed from
   nothing each iteration?  No — the pipeline copies internally; running
   on the same input repeatedly is what the daemon does under load. *)
let measure_size ~blocks ~iters =
  let job = List.hd (Corpus.generate ~seed:(1000 + blocks) [ (blocks, 1) ]) in
  let g = job.Corpus.graph in
  let pipeline = (Option.get (Registry.find "lcm-edge")).Registry.pipeline in
  let run () = ignore (Pass.Pipeline.run_graph Pass.default_ctx pipeline g) in
  let prof = Prof.create () in
  let spans_per_run = ref 0 in
  (* The timed region is the request's compute path: span recording is in
     it, draining and profile folding are not — the daemon collects a
     request's spans after its response frame is sent. *)
  let collect i =
    let spans = Trace.drain () in
    if i = 0 then spans_per_run := List.length spans;
    Prof.add prof spans
  in
  let traced_run i =
    Trace.in_trace ~trace_id:(Printf.sprintf "bench-%d" i) "request" run
  in
  (* Warmup both paths, then alternate off/on rounds so drift (GC state,
     frequency scaling) lands on both sides equally. *)
  Trace.disable ();
  for _ = 1 to 3 do run () done;
  Trace.enable ();
  for i = 1 to 3 do
    traced_run (-i);
    collect (-i)
  done;
  let off = Array.make iters 0. and on = Array.make iters 0. in
  for i = 0 to iters - 1 do
    Trace.disable ();
    let t0 = now () in
    run ();
    off.(i) <- (now () -. t0) *. 1000.;
    Trace.enable ();
    let t1 = now () in
    traced_run i;
    on.(i) <- (now () -. t1) *. 1000.;
    collect i
  done;
  Trace.disable ();
  Array.sort compare off;
  Array.sort compare on;
  (* ---- steady-state allocation: heap path vs arena (serving) path ----
     The arena run is exactly what the engine does per admitted request:
     check a scratch arena out for the graph's shape class, thread it
     through the pipeline, reset on the way out. *)
  let shape_blocks = Cfg.label_bound g in
  let shape_exprs = Lcm_ir.Expr_pool.size (Cfg.candidate_pool g) in
  let arena_run () =
    Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a ->
        ignore
          (Pass.Pipeline.run_graph { Pass.scratch = Some a } pipeline g))
  in
  let alloc_iters = max 10 (iters / 4) in
  let alloc_heap_w = alloc_per_request ~warm:2 ~iters:alloc_iters run in
  let alloc_arena_w = alloc_per_request ~warm:5 ~iters:alloc_iters arena_run in
  (* The cascade alone (analyze: local predicates, safety systems,
     earliestness, delay, latestness, copies) — the phases the arena exists
     for, and the number the CI allocation budget below pins.  The full
     request above additionally rebuilds the output graph in the transform
     phase, whose allocation is inherently proportional to program size. *)
  let alloc_analyze_heap_w =
    alloc_per_request ~warm:2 ~iters:alloc_iters (fun () -> ignore (Lcm_core.Lcm_edge.analyze g))
  in
  let alloc_analyze_arena_w =
    alloc_per_request ~warm:5 ~iters:alloc_iters (fun () ->
        Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a ->
            ignore (Lcm_core.Lcm_edge.analyze ~scratch:a g)))
  in
  let misses0 =
    Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a -> Arena.misses a)
  in
  for _ = 1 to 5 do
    arena_run ()
  done;
  let misses1 =
    Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a -> Arena.misses a)
  in
  (* Traced arena runs, for the per-phase before/after breakdown (and the
     CI allocation budget on pass.lcm-edge). *)
  let prof_arena = Prof.create () in
  Trace.enable ();
  for i = 1 to 5 do
    Trace.in_trace ~trace_id:(Printf.sprintf "bench-arena-%d" i) "request" arena_run;
    Prof.add prof_arena (Trace.drain ())
  done;
  Trace.disable ();
  (* The text layers around the cascade, per KB so one budget covers every
     size: printing the graph, and decoding a run request carrying it (the
     frame's program string is one long literal full of escapes). *)
  let text = Cfg.to_string g in
  let frame =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Int 1);
           ("op", Json.String "run");
           ("format", Json.String "cfg");
           ("program", Json.String text);
         ])
  in
  let per_kb bytes w = w /. (float_of_int bytes /. 1024.) in
  let print_w_per_kb =
    per_kb (String.length text)
      (alloc_per_request ~warm:2 ~iters:alloc_iters (fun () -> ignore (Cfg.to_string g)))
  in
  let decode_w_per_kb =
    per_kb (String.length frame)
      (alloc_per_request ~warm:2 ~iters:alloc_iters (fun () -> ignore (Json.parse frame)))
  in
  (* The Bril frontend reads the same graph printed as Bril: the words it
     allocates are the graph it builds, not a JSON tree. *)
  let bril = Lcm_frontend.Bril.print g in
  let bril_parse_w_per_kb =
    per_kb (String.length bril)
      (alloc_per_request ~warm:2 ~iters:alloc_iters (fun () -> ignore (Lcm_frontend.Bril.parse_program bril)))
  in
  (* The CFG text reader on the graph's canonical text, measured the same
     way: what fleet-cached requests, journal recovery's base parse and
     retained-program round trips read. *)
  let cfg_parse_w_per_kb =
    per_kb (String.length text)
      (alloc_per_request ~warm:2 ~iters:alloc_iters (fun () -> ignore (Lcm_cfg.Cfg_text.parse text)))
  in
  (* The MiniImp frontend as the engine calls it, on source of the same
     size, the candidate pool included (a graph read through the builder
     carries it; one lowered block by block had to build it next). *)
  let imp = miniimp_source ~blocks in
  let miniimp_parse_w_per_kb =
    per_kb (String.length imp)
      (alloc_per_request ~warm:2 ~iters:alloc_iters (fun () ->
           match Lcm_frontend.Frontend.miniimp.Lcm_frontend.Frontend.parse imp with
           | Ok [ (_, g) ] -> ignore (Cfg.candidate_pool g)
           | Ok _ | Error _ -> failwith "EXP-TRACE: the generated MiniImp source did not read as one function"))
  in
  (* One admissible delta, the incremental tier's unit of work: the first
     block computing a candidate computes it once more (the candidate pool
     is unchanged), and [analyze_incr] restarts from the capture of the
     unpatched graph, building the delta's capture.  The capture is never
     written, so every repetition does the same work. *)
  let _, saved = Lcm_core.Lcm_edge.analyze_keep g in
  let l, e =
    List.find_map
      (fun l ->
        List.find_map (fun i -> Option.map (fun e -> (l, e)) (Lcm_ir.Instr.candidate i)) (Cfg.instrs g l))
      (Cfg.labels g)
    |> Option.get
  in
  let edit = [ Lcm_cfg.Patch.Set_instrs (l, Cfg.instrs g l @ [ Lcm_ir.Instr.Assign ("zdelta", e) ]) ] in
  let incr_solve a g' ~dirty =
    match Lcm_core.Lcm_edge.analyze_incr ~scratch:a g' ~prev:saved ~dirty with
    | Some r -> r
    | None -> failwith "EXP-TRACE: the restart refused the measured delta"
  in
  let delta_incr_w =
    let g' = Cfg.copy g in
    let dirty = Lcm_cfg.Patch.apply g' edit in
    alloc_per_request ~warm:5 ~iters:alloc_iters (fun () ->
        Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a ->
            ignore (incr_solve a g' ~dirty)))
  in
  (* The same delta traced, by phase: the pool check, the local rows, the
     two safety systems and the rest of the cascade (EARLIEST through the
     copies) — where a delta's analysis time and words go. *)
  let delta_phases =
    let g' = Cfg.copy g in
    let dirty = Lcm_cfg.Patch.apply g' edit in
    let run () =
      Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a -> ignore (incr_solve a g' ~dirty))
    in
    for _ = 1 to 5 do
      run ()
    done;
    let prof = Prof.create () in
    Trace.enable ();
    for i = 1 to alloc_iters do
      Trace.in_trace ~trace_id:(Printf.sprintf "bench-delta-%d" i) "delta" run;
      Prof.add prof (Trace.drain ())
    done;
    Trace.disable ();
    let rows = Prof.rows prof in
    let per (r : Prof.row) = (r.Prof.total_s /. float_of_int r.Prof.count *. 1e6, r.Prof.alloc_w /. float_of_int r.Prof.count) in
    let sum names =
      List.fold_left
        (fun (us, w) (r : Prof.row) ->
          if List.mem r.Prof.name names then
            let u, x = per r in
            (us +. u, w +. x)
          else (us, w))
        (0., 0.) rows
    in
    List.map
      (fun (label, names) ->
        let us, w = sum names in
        (label, us, w))
      delta_phase_groups
  in
  (* The whole delta, as the engine serves it: copy the retained graph
     (whose memos the retain response filled), patch the copy, restart the
     analysis, transform, count both graphs and encode the response from
     the blocks' escaped texts.  Every repetition patches a fresh copy of
     the same graph, so the transform's unchanged blocks come from the
     rewrite memos, as on a retained handle. *)
  let e2e_w edit =
    ignore (Cfg.to_json g);
    ignore (Lcm_eval.Metrics.static_counts g);
    alloc_per_request ~warm:5 ~iters:alloc_iters (fun () ->
        let g' = Cfg.copy g in
        let dirty = Lcm_cfg.Patch.apply g' edit in
        Pool.Scratch.with_arena ~blocks:shape_blocks ~exprs:shape_exprs (fun a ->
            let an, _, region = incr_solve a g' ~dirty in
            let out, _ = Lcm_core.Transform.apply g' (Lcm_core.Lcm_edge.spec g' an) in
            let before = Lcm_eval.Metrics.static_counts g' in
            let after = Lcm_eval.Metrics.static_counts out in
            let solve =
              Json.Obj
                [
                  ("mode", Json.String "incremental");
                  ("blocks", Json.Int (Cfg.num_blocks g'));
                  ("region_blocks", Json.Int region);
                  ("visits", Json.Int an.Lcm_core.Lcm_edge.visits);
                ]
            in
            ignore
              (Lcm_server.Protocol.ok_delta_graph ~id:(Json.Int 1) ~trace_id:"t-1" ~algorithm:"lcm-edge"
                 ~validated:false
                 ~extra:[ ("handle", Json.String "h0-1"); ("solve", solve) ]
                 ~program:out ~before ~after ~timing:None ())))
  in
  let delta_e2e_w = e2e_w edit in
  (* The same block computing, besides, a candidate the pool lacks (an
     operand of [e] times a constant no candidate uses): the restart
     appends a bit to a copy of the capture's pool, scans every block's
     events for the new TRANSP column, ranks the expressions and renames
     the temporaries whose rank moved, so their blocks are rewritten
     again. *)
  let delta_pool_w =
    let pool = Lcm_core.Lcm_edge.saved_pool saved in
    let v = match Lcm_ir.Instr.uses (Lcm_ir.Instr.Assign ("_", e)) with v :: _ -> v | [] -> "zpool" in
    let rec fresh c =
      let x = Lcm_ir.Expr.Binary (Lcm_ir.Expr.Mul, Lcm_ir.Expr.Var v, Lcm_ir.Expr.Const c) in
      if Option.is_none (Lcm_ir.Expr_pool.index pool x) then x else fresh (c + 1)
    in
    e2e_w [ Lcm_cfg.Patch.Set_instrs (l, Cfg.instrs g l @ [ Lcm_ir.Instr.Assign ("zdelta", fresh 7919) ]) ]
  in
  {
    blocks;
    iters;
    off_p50_ms = percentile off 0.5;
    off_p95_ms = percentile off 0.95;
    on_p50_ms = percentile on 0.5;
    on_p95_ms = percentile on 0.95;
    spans_per_run = !spans_per_run;
    prof;
    alloc_heap_w;
    alloc_arena_w;
    alloc_analyze_heap_w;
    alloc_analyze_arena_w;
    arena_misses_delta = misses1 - misses0;
    prof_arena;
    print_w_per_kb;
    decode_w_per_kb;
    bril_parse_w_per_kb;
    cfg_parse_w_per_kb;
    miniimp_parse_w_per_kb;
    delta_incr_w;
    delta_e2e_w;
    delta_pool_w;
    delta_phases;
  }

let disabled_probe_ns () =
  Trace.disable ();
  let n = 1_000_000 in
  (* Subtract the cost of the loop + closure call itself so the number is
     the probe, not the harness. *)
  let sink = ref 0 in
  let f () = incr sink in
  let t0 = now () in
  for _ = 1 to n do
    f ()
  done;
  let base = now () -. t0 in
  let t1 = now () in
  for _ = 1 to n do
    Trace.span "noop" f
  done;
  let probed = now () -. t1 in
  Float.max 0. ((probed -. base) *. 1e9 /. float_of_int n)

(* ---- retry-crossing trace through a --trace-dir daemon ---- *)

let resolve_exe () =
  match Sys.getenv_opt "LCMOPT_EXE" with
  | Some p -> p
  | None ->
    let d = Filename.dirname Sys.executable_name in
    Filename.concat (Filename.concat (Filename.dirname d) "bin") "lcmopt.exe"

(* Fault decisions are a pure function of (seed, point, occurrence), so we
   can pick — in-process, with the same PRNG the daemon will use — a seed
   whose queue.reject fires on the first admission and not the second. *)
let pick_reject_seed () =
  let rec go s =
    if s > 10_000 then failwith "exp_trace: no reject-then-accept seed in 10k tries"
    else begin
      Fault.configure ~seed:s [ ("queue.reject", 0.5) ];
      let first = Fault.fire "queue.reject" in
      let second = Fault.fire "queue.reject" in
      if first && not second then s else go (s + 1)
    end
  in
  let s = go 1 in
  Fault.disable ();
  s

let rec mkdtemp () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcm-trace-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  match Unix.mkdir d 0o700 with
  | () -> d
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> mkdtemp ()

let read_frame fd reader =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> None
    | n -> (
      match
        List.filter_map (function Frame.Frame f -> Some f | Frame.Oversized _ -> None)
          (Frame.feed reader chunk n)
      with
      | f :: _ -> Some f
      | [] -> go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type retry_result = {
  attempts : int;
  events : int;
  roots : int;
  admissions : int;
  well_formed : bool;
  one_trace : bool;
  cascade_present : bool;
}

let cascade_spans = [ "lcm.down_safety"; "lcm.earliest"; "lcm.delay"; "lcm.latest"; "lcm.live"; "lcm.copy" ]

let run_retry_trace () =
  let exe = resolve_exe () in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "exp_trace: daemon binary not found at %s (set LCMOPT_EXE)\n" exe;
    exit 1
  end;
  let seed = pick_reject_seed () in
  let dir = mkdtemp () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "LCM_CHAOS=%d:queue.reject=0.5" seed |]
  in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--stdio"; "--quiet"; "--trace-dir"; dir |]
      env req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  let job = List.hd (Corpus.generate ~seed:7 [ (60, 1) ]) in
  let program = Cfg.to_string job.Corpus.graph in
  let reader = Frame.create ~max_frame:(1 lsl 22) in
  let trace_id = "bench-retry" in
  let send id =
    let frame =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("trace_id", Json.String trace_id);
             ("op", Json.String "run");
             ("format", Json.String "cfg");
             ("program", Json.String program);
           ])
      ^ "\n"
    in
    ignore (Unix.write_substring req_w frame 0 (String.length frame))
  in
  (* Resend on a retryable error under the SAME trace_id — the client
     retry contract whose span forest we are about to assert on. *)
  let rec attempt id tries =
    if tries > 10 then failwith "exp_trace: request never accepted in 10 attempts";
    send id;
    match read_frame resp_r reader with
    | None -> failwith "exp_trace: daemon closed the pipe without responding"
    | Some f -> (
      let j = Json.parse f in
      match Option.bind (Json.member "status" j) Json.to_string_opt with
      | Some "ok" -> tries
      | _ -> attempt (id + 1) (tries + 1))
  in
  let attempts = attempt 1 1 in
  (* EOF drains the daemon; finish() flushes every buffered span. *)
  Unix.close req_w;
  ignore (Unix.waitpid [] pid);
  Unix.close resp_r;
  let path = Filename.concat dir (trace_id ^ ".trace.json") in
  let content =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* The file is a legal-but-unterminated Chrome JSON array (that is what
     makes it appendable across retries and restarts); terminate it. *)
  let events =
    match Json.parse (content ^ "null]") with
    | Json.List l -> List.filter (fun e -> e <> Json.Null) l
    | _ -> failwith "exp_trace: trace file is not a JSON array"
  in
  let arg name e = Json.member name (Option.value (Json.member "args" e) ~default:Json.Null) in
  let ids =
    List.filter_map (fun e -> Option.bind (arg "span_id" e) Json.to_int_opt) events
  in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt) events
  in
  let parents =
    List.filter_map (fun e -> Option.bind (arg "parent_id" e) Json.to_int_opt) events
  in
  let well_formed =
    List.length ids = List.length events
    && List.for_all (fun p -> p = -1 || List.mem p ids) parents
  in
  let one_trace =
    List.for_all
      (fun e -> Option.bind (arg "trace_id" e) Json.to_string_opt = Some trace_id)
      events
  in
  (* Clean up the temp dir (the daemon also wrote daemon.trace.json for
     its frame I/O spans). *)
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  {
    attempts;
    events = List.length events;
    roots = List.length (List.filter (fun p -> p = -1) parents);
    admissions = List.length (List.filter (String.equal "daemon.admission") names);
    well_formed;
    one_trace;
    cascade_present =
      List.for_all (fun c -> List.mem c names) cascade_spans && List.mem "request" names;
  }

(* ---- reporting ---- *)

let print_rows rows =
  let t =
    Table.create
      [ "blocks"; "iters"; "off p50"; "off p95"; "on p50"; "on p95"; "p95 overhead"; "spans/run" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_int r.blocks;
          Table.cell_int r.iters;
          Printf.sprintf "%.3f ms" r.off_p50_ms;
          Printf.sprintf "%.3f ms" r.off_p95_ms;
          Printf.sprintf "%.3f ms" r.on_p50_ms;
          Printf.sprintf "%.3f ms" r.on_p95_ms;
          Printf.sprintf "%+.2f%%" (overhead_p95 r *. 100.);
          Table.cell_int r.spans_per_run;
        ])
    rows;
  Table.print t

(* Steady-state allocation, heap path vs arena path, with the per-phase
   reduction for the cascade/solver phases the arena exists for. *)
let alloc_phases =
  [ "pass.lcm-edge"; "solve.avail"; "solve.antic"; "lcm.delay"; "lcm.latest"; "lcm.live"; "lcm.copy" ]

let print_alloc_rows rows =
  let t =
    Table.create
      [
        "blocks"; "heap w/req"; "arena w/req"; "reduction"; "cascade heap"; "cascade arena";
        "cascade red."; "arena misses";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_int r.blocks;
          Printf.sprintf "%.0f" r.alloc_heap_w;
          Printf.sprintf "%.0f" r.alloc_arena_w;
          Printf.sprintf "%.1fx" (r.alloc_heap_w /. Float.max 1. r.alloc_arena_w);
          Printf.sprintf "%.0f" r.alloc_analyze_heap_w;
          Printf.sprintf "%.0f" r.alloc_analyze_arena_w;
          Printf.sprintf "%.1fx" (r.alloc_analyze_heap_w /. Float.max 1. r.alloc_analyze_arena_w);
          Table.cell_int r.arena_misses_delta;
        ])
    rows;
  Table.print t;
  List.iter
    (fun r ->
      Common.note "  %4d blocks  one body delta (analyze_incr + capture, arena) %8.0f w" r.blocks
        r.delta_incr_w;
      Common.note "  %4d blocks  one body delta end to end (copy .. encoded response)  %8.0f w" r.blocks
        r.delta_e2e_w;
      Common.note "  %4d blocks  one delta adding a candidate, end to end  %8.0f w" r.blocks r.delta_pool_w;
      List.iter
        (fun (name, us, w) -> Common.note "  %4d blocks    delta phase %-16s %8.2f us %8.0f w" r.blocks name us w)
        r.delta_phases)
    rows;
  List.iter
    (fun r ->
      List.iter
        (fun name ->
          match (phase_alloc r.prof name, phase_alloc r.prof_arena name) with
          | Some heap, Some arena ->
            Common.note "  %4d blocks  %-16s %10.0f -> %8.0f w/req (%.0fx)" r.blocks name heap
              arena
              (heap /. Float.max 1. arena)
          | _ -> ())
        alloc_phases)
    rows

(* ---- CI allocation budget ----

   bench/alloc_budget.json pins arena-path words/request in the quick run.
   A regression (someone reintroduces a per-request allocation on the hot
   path) fails CI; raising the budget is a reviewed change in the same PR
   that justifies it.

   Budget keys:
   - "analyze.arena": the LCM cascade (pass.lcm-edge minus the transform),
     measured directly with GC fences — steady-state size-independent, so
     one tight budget covers every shape.
   - "request.arena": the whole pipeline, transform included — loose (the
     output graph scales with program size), a backstop against gross
     regressions.
   - "cfg.print.w_per_kb" / "json.decode.w_per_kb" / "bril.parse.w_per_kb"
     / "cfg.parse.w_per_kb" / "miniimp.parse.w_per_kb": the text layers of
     a request — [Cfg.to_string], [Json.parse] of a run request frame,
     [Bril.parse_program] of the graph printed as Bril, [Cfg_text.parse] of
     its canonical text, and the MiniImp frontend on Gencfg source of the
     same size, pool included — in words per KB of text, fenced like the
     two above.
   - "delta.incr.w": [analyze_incr] of one admissible single-block body
     delta on the arena path, the capture it builds included — fenced.
   - "delta.e2e.w": the same delta end to end, from the copy of the
     retained graph through the encoded response — fenced.
   - "delta.pool.w": a single-block delta that adds a candidate the pool
     lacks, end to end as "delta.e2e.w" — fenced.
   - any other key: matched against the traced per-phase profile (span
     accounting; indicative, coarser than the fenced numbers).

   A budget is a number, which holds at every measured size, or an object
   from sizes (block counts, as strings) to numbers, for a quantity that
   grows with the program: a size the object does not list is not
   checked. *)

let budget_default_path = "bench/alloc_budget.json"

let check_alloc_budget rows =
  let path = Option.value (Sys.getenv_opt "LCM_ALLOC_BUDGET") ~default:budget_default_path in
  if not (Sys.file_exists path) then
    Common.note "no allocation budget at %s; skipping the alloc gate" path
  else begin
    let j =
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Json.parse s
    in
    (* name -> blocks -> budget at that size, if any *)
    let budgets =
      match Json.member "budgets" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match v with
            | Json.Obj sizes ->
              Some (name, fun blocks -> Option.bind (List.assoc_opt (string_of_int blocks) sizes) Json.to_float_opt)
            | v -> Option.map (fun b -> (name, fun _ -> Some b)) (Json.to_float_opt v))
          fields
      | _ -> []
    in
    List.iter
      (fun (name, budget_at) ->
        List.iter
          (fun r ->
            match budget_at r.blocks with
            | None -> ()
            | Some budget ->
              (let got =
                match name with
                | "analyze.arena" -> Some r.alloc_analyze_arena_w
                | "request.arena" -> Some r.alloc_arena_w
                | "cfg.print.w_per_kb" -> Some r.print_w_per_kb
                | "json.decode.w_per_kb" -> Some r.decode_w_per_kb
                | "bril.parse.w_per_kb" -> Some r.bril_parse_w_per_kb
                | "cfg.parse.w_per_kb" -> Some r.cfg_parse_w_per_kb
                | "miniimp.parse.w_per_kb" -> Some r.miniimp_parse_w_per_kb
                | "delta.incr.w" -> Some r.delta_incr_w
                | "delta.e2e.w" -> Some r.delta_e2e_w
                | "delta.pool.w" -> Some r.delta_pool_w
                | _ -> phase_alloc r.prof_arena name
              in
              let unit = if String.ends_with ~suffix:"w_per_kb" name then "words/KB" else "words/request" in
              match got with
              | None -> ()
              | Some got ->
                if got > budget then begin
                  Common.note "FAIL: %s allocates %.0f %s at %d blocks, budget is %.0f (%s)" name got unit
                    r.blocks budget path;
                  exit 1
                end
                else Common.note "alloc budget ok: %-20s %8.0f <= %8.0f %s" name got budget unit))
          rows)
      budgets
  end

let json_of_size r =
  Json.Obj
    [
      ("blocks", Json.Int r.blocks);
      ("iters", Json.Int r.iters);
      ("off_p50_ms", Json.Float r.off_p50_ms);
      ("off_p95_ms", Json.Float r.off_p95_ms);
      ("on_p50_ms", Json.Float r.on_p50_ms);
      ("on_p95_ms", Json.Float r.on_p95_ms);
      ("p95_overhead_pct", Json.Float (overhead_p95 r *. 100.));
      ("spans_per_run", Json.Int r.spans_per_run);
      ("alloc_heap_w_per_req", Json.Float (Float.round r.alloc_heap_w));
      ("alloc_arena_w_per_req", Json.Float (Float.round r.alloc_arena_w));
      ( "alloc_reduction_x",
        Json.Float (Float.round (r.alloc_heap_w /. Float.max 1. r.alloc_arena_w *. 10.) /. 10.) );
      ("alloc_analyze_heap_w_per_req", Json.Float (Float.round r.alloc_analyze_heap_w));
      ("alloc_analyze_arena_w_per_req", Json.Float (Float.round r.alloc_analyze_arena_w));
      ( "alloc_analyze_reduction_x",
        Json.Float
          (Float.round (r.alloc_analyze_heap_w /. Float.max 1. r.alloc_analyze_arena_w *. 10.)
          /. 10.) );
      ("arena_misses_delta", Json.Int r.arena_misses_delta);
      ("print_w_per_kb", Json.Float (Float.round r.print_w_per_kb));
      ("decode_w_per_kb", Json.Float (Float.round r.decode_w_per_kb));
      ("bril_parse_w_per_kb", Json.Float (Float.round r.bril_parse_w_per_kb));
      ("cfg_parse_w_per_kb", Json.Float (Float.round r.cfg_parse_w_per_kb));
      ("miniimp_parse_w_per_kb", Json.Float (Float.round r.miniimp_parse_w_per_kb));
      ("delta_incr_w", Json.Float (Float.round r.delta_incr_w));
      ("delta_e2e_w", Json.Float (Float.round r.delta_e2e_w));
      ("delta_pool_w", Json.Float (Float.round r.delta_pool_w));
      ( "delta_phases",
        Json.Obj
          (List.map
             (fun (name, us, w) ->
               (name, Json.Obj [ ("us", Json.Float (Float.round (us *. 100.) /. 100.)); ("w", Json.Float (Float.round w)) ]))
             r.delta_phases) );
      ("phases", Prof.to_json r.prof);
      ("phases_arena", Prof.to_json r.prof_arena);
    ]

let emit_json ?(path = "BENCH_trace.json") ~probe_ns rows retry =
  let doc =
    Json.Obj
      [
        ("experiment", Json.String "trace");
        ( "benchmark",
          Json.String
            "lcm-edge pipeline traced vs disabled (alternating rounds, p95), disabled-probe \
             microbenchmark, and a retry-crossing request reconstructed from a --trace-dir \
             Chrome trace file" );
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("disabled_probe_ns", Json.Float probe_ns);
        ("p95_overhead_under_3pct", Json.Bool (List.for_all (fun r -> overhead_p95 r < 0.03) rows));
        ("sizes", Json.List (List.map json_of_size rows));
        ( "retry_trace",
          Json.Obj
            [
              ("attempts", Json.Int retry.attempts);
              ("retries_crossed", Json.Int (retry.attempts - 1));
              ("events", Json.Int retry.events);
              ("root_spans", Json.Int retry.roots);
              ("admission_spans", Json.Int retry.admissions);
              ("well_formed", Json.Bool retry.well_formed);
              ("single_trace_id", Json.Bool retry.one_trace);
              ("cascade_spans_present", Json.Bool retry.cascade_present);
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Common.note "wrote %s" path

let assert_retry retry =
  if retry.attempts < 2 then begin
    Common.note "FAIL: request was accepted first try; no retry crossed the trace";
    exit 1
  end;
  if not retry.well_formed then begin
    Common.note "FAIL: span forest has dangling parent ids";
    exit 1
  end;
  if not retry.one_trace then begin
    Common.note "FAIL: foreign trace_id in the per-trace file";
    exit 1
  end;
  if not retry.cascade_present then begin
    Common.note "FAIL: trace is missing the request root or an LCM cascade phase span";
    exit 1
  end;
  if retry.admissions < 2 then begin
    Common.note "FAIL: expected one admission span per attempt, got %d" retry.admissions;
    exit 1
  end

let run_mode ~quick () =
  Common.section
    (if quick then "EXP-TRACE  Observability overhead and retry-crossing traces (quick smoke run)"
     else "EXP-TRACE  Observability overhead and retry-crossing traces");
  let sizes = if quick then [ (100, 30) ] else [ (100, 200); (400, 120); (1000, 80) ] in
  let rows = List.map (fun (blocks, iters) -> measure_size ~blocks ~iters) sizes in
  print_rows rows;
  Common.note "steady-state allocation per request (heap path vs arena path):";
  print_alloc_rows rows;
  check_alloc_budget rows;
  let probe_ns = disabled_probe_ns () in
  Common.note "disabled probe: %.1f ns (one atomic load + branch)" probe_ns;
  Common.note "per-phase breakdown (largest size, traced runs):";
  Format.printf "%a@." Prof.pp (List.nth rows (List.length rows - 1)).prof;
  Common.note "per-phase breakdown (largest size, arena-backed runs):";
  Format.printf "%a@." Prof.pp (List.nth rows (List.length rows - 1)).prof_arena;
  Common.note "retry-crossing trace through `serve --trace-dir` under queue.reject chaos...";
  let retry = run_retry_trace () in
  Common.note
    "logical request: %d attempts, %d retries; trace file: %d events, %d roots, %d admission \
     spans, well-formed=%b, cascade=%b"
    retry.attempts (retry.attempts - 1) retry.events retry.roots retry.admissions
    retry.well_formed retry.cascade_present;
  assert_retry retry;
  if quick then begin
    (* CI gate: a quick run is an assertion, not a report.  The p95 bound
       is asserted only on the full run (quick iteration counts are too
       small for a stable tail); quick still requires the traced path to
       not be catastrophically slower. *)
    List.iter
      (fun r ->
        if overhead_p95 r > 0.25 then begin
          Common.note "FAIL: traced p95 overhead %.1f%% > 25%% in quick mode"
            (overhead_p95 r *. 100.);
          exit 1
        end)
      rows;
    Common.note "quick trace checks passed"
  end
  else emit_json ~probe_ns rows retry

let run () = run_mode ~quick:false ()
let run_quick () = run_mode ~quick:true ()
