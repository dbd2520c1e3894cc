module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Frontend = Lcm_frontend.Frontend
module Lower = Lcm_cfg.Lower
module Parser = Lcm_ir.Parser
module Lexer = Lcm_ir.Lexer
module Instr = Lcm_ir.Instr
module Pool = Lcm_support.Pool
module Arena = Lcm_support.Arena
module Fault = Lcm_support.Fault
module Prng = Lcm_support.Prng
module Registry = Lcm_eval.Registry
module Metrics = Lcm_eval.Metrics
module Interp = Lcm_eval.Interp
module Pass = Lcm_core.Pass
module Transform = Lcm_core.Transform
module Lcm_edge = Lcm_core.Lcm_edge
module Patch = Lcm_cfg.Patch
module Placement_check = Lcm_core.Placement_check
module Trace = Lcm_obs.Trace
module Prof = Lcm_obs.Prof

type config = {
  lookup : string -> Registry.entry option;
  stats : Stats.t;
  m : Smetrics.t;
  prof : Prof.t;
  no_timing : bool;
  worker_id : int option;
  handles : Handles.t;
  journal : Hjournal.t option;
  recovered : (string, unit) Hashtbl.t;
}

let default_config ?(no_timing = false) ?worker_id ?(handle_capacity = 128) ?journal stats =
  {
    lookup = Registry.find;
    stats;
    m = Smetrics.create stats;
    prof = Prof.create ();
    no_timing;
    worker_id;
    handles = Handles.create ~worker:(Option.value worker_id ~default:0) ~capacity:handle_capacity;
    journal;
    recovered = Hashtbl.create 8;
  }

(* Serving metadata appended to run/delta responses: which worker answered
   (shard mode only — a plain daemon omits the field, keeping historical
   frames byte-identical). *)
let worker_fields cfg =
  match cfg.worker_id with Some w -> [ ("worker", Json.Int w) ] | None -> []

exception Deadline

(* A typed failure raised inside the pipeline; anything else escaping is a
   panic and maps to [Internal]. *)
exception Reject of Protocol.error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

let check_deadline ~now ~deadline =
  match deadline with
  | Some d when now () > d -> raise Deadline
  | _ -> ()

(* Phase 1: the program text to a validated graph, through the frontend
   registry — the engine resolves the request's [format] by name, so new
   formats are registry entries, not new engine arms. *)
let load_graph cfg (r : Protocol.run_request) =
  let fe =
    match Frontend.find r.Protocol.format with
    | Some fe -> fe
    | None ->
      reject Protocol.Unsupported_format "unknown format %S (registered: %s)" r.Protocol.format
        (String.concat ", " Frontend.names)
  in
  Stats.bump (cfg.m.Smetrics.format_requests fe.Frontend.name);
  match Frontend.parse_one fe ?func:r.Protocol.func r.Protocol.program with
  | Ok g -> g
  | Error (Frontend.Parse e) -> reject Protocol.Parse_error "%s" e.Frontend.message
  | Error (Frontend.Pick m) -> reject Protocol.Bad_request "%s" m

(* ---- chaos boundaries ----
   Probed between pipeline phases.  All three probes are free when no
   LCM_CHAOS configuration is installed (one atomic load each). *)

let chaos_boundary () =
  if Fault.fire "engine.slow" then Unix.sleepf 0.002;
  if Fault.fire "engine.alloc" then raise Out_of_memory;
  Fault.inject "engine.panic"

(* ---- result validation ---- *)

exception Validation_failed of string
exception Validation_fuel
(* every interpreter sample ran out of fuel: nothing was actually compared *)

let validation_fuel = 50_000
let validation_runs = 3

(* Free variables: read somewhere, defined nowhere — the program's inputs. *)
let free_vars g =
  let defined = Hashtbl.create 16 in
  List.iter
    (fun l ->
      List.iter (fun i -> Option.iter (fun v -> Hashtbl.replace defined v ()) (Instr.defs i)) (Cfg.instrs g l))
    (Cfg.labels g);
  List.filter (fun v -> not (Hashtbl.mem defined v)) (Cfg.all_vars g)

(* Interpret both graphs on a few deterministic random inputs (seeded from
   the program text, so a request validates the same way everywhere) and
   compare observable behaviour.  Samples where both sides exhaust their
   fuel prove nothing and are skipped; if *no* sample completes the
   validation itself is inconclusive — [Validation_fuel]. *)
let interp_validate g g' =
  let inputs = free_vars g in
  let rng = Prng.of_int (Hashtbl.hash (Cfg.to_string g)) in
  let pool = Cfg.candidate_pool g in
  let pool' = Cfg.candidate_pool g' in
  let compared = ref 0 in
  for _ = 1 to validation_runs do
    let env = List.map (fun v -> (v, Prng.int_in rng 0 8)) inputs in
    let o = Interp.run ~fuel:validation_fuel ~pool ~env g in
    let o' = Interp.run ~fuel:validation_fuel ~pool:pool' ~env g' in
    if o.Interp.terminated && o'.Interp.terminated then begin
      incr compared;
      if not (Interp.same_behaviour o o') then
        raise (Validation_failed "interpreter outputs differ between original and transformed program")
    end
  done;
  if !compared = 0 then raise Validation_fuel

let spec_validate g spec =
  match Placement_check.check g spec with
  | Ok () -> ()
  | Error m -> raise (Validation_failed ("placement check: " ^ m))

(* Explicit validation of a served transformation: the placement check
   when the transformation exposes its spec, then an interpreter comparison
   that must complete on at least one sample. *)
let validate g g' spec =
  Trace.span "engine.validate" (fun () ->
      Option.iter (spec_validate g) spec;
      try interp_validate g g'
      with Validation_fuel ->
        reject Protocol.Fuel_exhausted
          "validation ran out of fuel (%d steps per sample): the program did not terminate on \
           any sample input"
          validation_fuel)

(* ---- the transformation, with an identity fallback ----

   Every run is one sequential solve through the entry's pipeline.  When
   it faults mid-pipeline (injected or real), the request is served the
   unchanged program instead, marked [degraded:"identity"]: the service
   sheds quality before it sheds availability, and the fallback cannot
   fail. *)

(* The spec used for cheap static validation: exposed only when the entry
   is a single pass whose report carries one — a multi-pass pipeline's
   later passes rewrite the graph past what any one spec describes, so a
   spec check alone would under-validate there. *)
let spec_of entry reports =
  match (entry.Registry.pipeline.Pass.Pipeline.passes, reports) with
  | [ _ ], (_, first) :: _ -> first.Pass.spec
  | _ -> None

(* The entry's pipeline under the request's arena (plus a trailing
   structural simplify when the request asked for one), bracketed by the
   chaos boundaries, then validation when asked. *)
let transform ~now ~deadline (r : Protocol.run_request) entry g ~scratch =
  chaos_boundary ();
  let pipe =
    if r.Protocol.simplify then Pass.Pipeline.append entry.Registry.pipeline [ Pass.simplify ]
    else entry.Registry.pipeline
  in
  let g', reports = Pass.Pipeline.run { Pass.scratch } pipe g in
  check_deadline ~now ~deadline;
  chaos_boundary ();
  check_deadline ~now ~deadline;
  if r.Protocol.validate then validate g g' (spec_of entry reports);
  g'

let execute_run cfg ~now ~deadline ~id ~trace_id (r : Protocol.run_request) ~timing_of =
  let entry =
    match cfg.lookup r.Protocol.algorithm with
    | Some e -> e
    | None -> reject Protocol.Bad_request "unknown algorithm %S" r.Protocol.algorithm
  in
  let g = Trace.span "engine.load" (fun () -> load_graph cfg r) in
  check_deadline ~now ~deadline;
  (* Admission: check a scratch arena out for this request's shape class.
     Everything from the solve to response rendering runs inside the
     checkout; [Pool.Scratch.with_arena]'s finalizer reclaims every loan
     even when the solve (or a chaos injection) panics.  Nothing
     arena-backed escapes: the response carries only strings and ints. *)
  let blocks = Cfg.label_bound g in
  let exprs = Lcm_ir.Expr_pool.size (Cfg.candidate_pool g) in
  Pool.Scratch.with_arena ~blocks ~exprs @@ fun arena ->
  let alloc0 = Gc.allocated_bytes () in
  let checkouts0 = Arena.checkouts arena and misses0 = Arena.misses arena in
  (* Deadlines and typed rejections surface as themselves; any other
     failure serves the unchanged program, which is vacuously valid. *)
  let g', degraded =
    match transform ~now ~deadline r entry g ~scratch:(Some arena) with
    | g' -> (g', None)
    | exception ((Deadline | Reject _) as e) -> raise e
    | exception _ ->
      Stats.bump cfg.m.Smetrics.tier_fallbacks;
      check_deadline ~now ~deadline;
      Stats.bump cfg.m.Smetrics.degraded_total;
      Stats.bump cfg.m.Smetrics.degraded_identity;
      (g, Some "identity")
  in
  let validated = r.Protocol.validate in
  if validated then Stats.bump cfg.m.Smetrics.validated_total;
  let before = Metrics.static_counts g in
  let after = Metrics.static_counts g' in
  let frame =
    Protocol.ok_run_graph ~id ~trace_id ~algorithm:r.Protocol.algorithm ~workers:1 ~degraded ~validated
      ~extra:(worker_fields cfg) ~program:g' ~before ~after ~timing:(timing_of ()) ()
  in
  (* Allocation telemetry for the zero-allocation steady state: how many
     scratch checkouts the request made, how many had to heap-allocate
     (zero once the shape class is warm), and the minor-words actually
     allocated on this domain while serving it. *)
  let bump c by = if by > 0 then Stats.bump ~by c in
  bump cfg.m.Smetrics.arena_checkouts (Arena.checkouts arena - checkouts0);
  bump cfg.m.Smetrics.arena_misses (Arena.misses arena - misses0);
  let bytes_per_word = Sys.word_size / 8 in
  bump cfg.m.Smetrics.alloc_words
    (int_of_float ((Gc.allocated_bytes () -. alloc0) /. float_of_int bytes_per_word));
  frame

(* ---- retained graphs and incremental re-solve ----

   A [run] with [retain:true] parks the graph plus its capture (candidate
   pool, local rows, AVAIL/ANTIC fixpoints, all on the heap: the capture
   must outlive this request) in the handle table.  A later [delta]
   patches a copy of the retained graph and restarts the analysis from
   the capture, working only on the rows the patch changed; the new
   capture shares every other row with the old one, which stays intact
   until the delta succeeds.  A patch that adds a candidate expression
   appends a bit to (a copy of) the capture's pool, and one that removes an
   expression's last occurrence leaves its bit dead, so the restart covers
   pool changes too; the temporaries are named by rank, so the program is
   the from-scratch one.  A from-scratch solve on the patched graph — same
   answer, no savings, and the dead bits compacted — remains for an added
   candidate over a name the capture's numbering lacks, and for a pool
   change that comes with a shape edit, outgrows the rows' width in words,
   or meets a block that cannot reach the exit. *)

(* An evicted handle's journal goes with it: recovery must not resurrect
   handles the capacity bound already reclaimed. *)
let drop_evicted cfg evicted =
  if evicted <> [] then begin
    Stats.bump ~by:(List.length evicted) cfg.m.Smetrics.handles_evicted;
    List.iter
      (fun h ->
        Hashtbl.remove cfg.recovered h;
        Option.iter (fun j -> Hjournal.drop j ~handle:h) cfg.journal)
      evicted
  end

let execute_retain cfg ~now ~deadline ~id ~trace_id (r : Protocol.run_request) ~timing_of =
  if not (String.equal r.Protocol.algorithm "lcm-edge") then
    reject Protocol.Bad_request "retain is only supported for algorithm \"lcm-edge\" (got %S)"
      r.Protocol.algorithm;
  let g = Trace.span "engine.load" (fun () -> load_graph cfg r) in
  check_deadline ~now ~deadline;
  chaos_boundary ();
  let a, saved = Trace.span "engine.retain.solve" (fun () -> Lcm_edge.analyze_keep g) in
  check_deadline ~now ~deadline;
  let g', report = Transform.apply ~simplify:r.Protocol.simplify g (Lcm_edge.spec g a) in
  chaos_boundary ();
  check_deadline ~now ~deadline;
  let validated = r.Protocol.validate in
  if validated then begin
    validate g g' (Some report.Transform.spec);
    Stats.bump cfg.m.Smetrics.validated_total
  end;
  let handle, `Evicted evicted =
    Handles.register cfg.handles
      { Handles.algorithm = r.Protocol.algorithm; simplify = r.Protocol.simplify; state = (g, saved) }
  in
  Stats.bump cfg.m.Smetrics.handles_live;
  drop_evicted cfg evicted;
  (* The base record: the handle survives [kill -9] from the moment the
     response leaves — the journal is fsynced before we return. *)
  (match cfg.journal with
  | None -> ()
  | Some j ->
    (match
       Hjournal.record_base j ~handle ~algorithm:r.Protocol.algorithm ~simplify:r.Protocol.simplify
         ~program:(Cfg.to_string g)
     with
    | Ok () -> Stats.bump cfg.m.Smetrics.journal_appends
    | Error _ -> Stats.bump cfg.m.Smetrics.journal_append_failures));
  let before = Metrics.static_counts g and after = Metrics.static_counts g' in
  Protocol.ok_run_graph ~id ~trace_id ~algorithm:r.Protocol.algorithm ~workers:1 ~degraded:None
    ~validated
    ~extra:(worker_fields cfg @ [ ("handle", Json.String handle); ("retained_program", Protocol.program_json g) ])
    ~program:g' ~before ~after ~timing:(timing_of ()) ()

(* Wire edits name blocks ["B<n>"] in the *canonical* printing of the
   retained graph (echoed back as [retained_program]): canonical text
   label Bn is internal label n, so resolution is a digit parse.  A block
   added by this delta gets the next label in sequence — N, N+1, … for a
   graph of N blocks — and may be referenced by later edits in the same
   request (edits apply in order). *)
let parse_wire_block what s =
  let n =
    if String.length s >= 2 && s.[0] = 'B' then int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  in
  match n with
  | Some n when n >= 0 -> n
  | _ -> reject Protocol.Bad_request "%s: %S is not a block name like \"B3\"" what s

let parse_wire_instr s =
  try Cfg_text.parse_instr_line s
  with Cfg_text.Parse_error (m, _) -> reject Protocol.Bad_request "bad instruction %S: %s" s m

let parse_wire_term s =
  match
    try Cfg_text.parse_term_line s
    with Cfg_text.Parse_error (m, _) -> reject Protocol.Bad_request "bad terminator %S: %s" s m
  with
  | Some (Cfg_text.T_goto n) -> Cfg.Goto n
  | Some (Cfg_text.T_branch (c, a, b)) -> Cfg.Branch (c, a, b)
  | Some Cfg_text.T_halt -> Cfg.Halt
  | None -> reject Protocol.Bad_request "%S is not a terminator (goto / if ... / halt)" s

let edits_of_wire (d : Protocol.delta_request) =
  List.concat_map
    (fun (e : Protocol.delta_edit) ->
      if e.Protocol.d_add then
        [
          Patch.Add_block
            ( List.map parse_wire_instr (Option.value e.Protocol.d_instrs ~default:[]),
              parse_wire_term (Option.get e.Protocol.d_term) );
        ]
      else begin
        let l = parse_wire_block "edit" (Option.get e.Protocol.d_block) in
        (match e.Protocol.d_instrs with
        | Some ss -> [ Patch.Set_instrs (l, List.map parse_wire_instr ss) ]
        | None -> [])
        @
        match e.Protocol.d_term with
        | Some s -> [ Patch.Set_term (l, parse_wire_term s) ]
        | None -> []
      end)
    d.Protocol.d_edits

(* Re-solve a patched copy of a retained graph from the handle's capture,
   falling back to a from-scratch solve when the capture cannot restart
   (see above): the one path a live delta and journal replay share.
   The capture's rows stay on the heap; the rest of the cascade runs on
   [arena].  Returns the analysis, the new capture and the changed-row
   count of an incremental solve ([None]: the full fallback ran). *)
let resolve_patched arena g ~prev ~dirty =
  match Lcm_edge.analyze_incr ~scratch:arena g ~prev ~dirty with
  | Some (a, saved, region) -> (a, saved, Some region)
  | None ->
    let a, saved = Lcm_edge.analyze_keep ~scratch:arena g in
    (a, saved, None)

let with_delta_arena g saved f =
  Pool.Scratch.with_arena ~blocks:(Cfg.label_bound g)
    ~exprs:(Lcm_ir.Expr_pool.size (Lcm_edge.saved_pool saved))
    f

let execute_delta cfg ~now ~deadline ~id ~trace_id (d : Protocol.delta_request) ~timing_of =
  Stats.bump cfg.m.Smetrics.deltas_total;
  let entry =
    match Handles.find cfg.handles d.Protocol.d_handle with
    | Some e -> e
    | None ->
      reject Protocol.Unknown_handle
        "unknown handle %S: never issued here, evicted, or lost with a worker restart"
        d.Protocol.d_handle
  in
  let edits = edits_of_wire d in
  check_deadline ~now ~deadline;
  chaos_boundary ();
  (* Patch a copy: a failed patch leaves the handle intact at its
     pre-patch state, so the client can correct and resend.  The copy is
     copy-on-write: it shares every block, with its memoised text and
     counts, and the retained graph's validation mark, so the copy, a
     body-only patch's validation, the counts and the printing of the
     untouched blocks cost nothing per block beyond a slot. *)
  let g0, saved0 = entry.Handles.state in
  let g = Cfg.copy g0 in
  let dirty =
    try Patch.apply g edits with Patch.Error m -> reject Protocol.Bad_request "bad patch: %s" m
  in
  check_deadline ~now ~deadline;
  (* Everything from the solve to response rendering runs inside the
     arena checkout, as a run does; only the capture outlives it. *)
  with_delta_arena g saved0 @@ fun arena ->
  let a, saved, mode, region =
    match Trace.span "engine.delta.solve" (fun () -> resolve_patched arena g ~prev:saved0 ~dirty) with
    | a, saved, Some region ->
      Stats.bump cfg.m.Smetrics.delta_incremental;
      (a, saved, "incremental", region)
    | a, saved, None ->
      Stats.bump cfg.m.Smetrics.delta_full;
      (a, saved, "full", Cfg.num_blocks g)
  in
  check_deadline ~now ~deadline;
  let g', _ = Transform.apply ~simplify:entry.Handles.simplify g (Lcm_edge.spec g a) in
  chaos_boundary ();
  (* validate: the incremental restart must land on the same program a
     from-scratch solve of the patched graph produces — bit-identical,
     checked by content digest. *)
  let full_visits =
    if d.Protocol.d_validate then begin
      let gv = Cfg.copy g in
      let av, _ = Trace.span "engine.delta.validate" (fun () -> Lcm_edge.analyze_keep gv) in
      let gv', _ = Transform.apply ~simplify:entry.Handles.simplify gv (Lcm_edge.spec gv av) in
      if not (String.equal (Cfg.digest g') (Cfg.digest gv')) then
        reject Protocol.Internal "incremental re-solve diverged from the from-scratch solve";
      Some av.Lcm_edge.visits
    end
    else None
  in
  check_deadline ~now ~deadline;
  entry.Handles.state <- (g, saved);
  (* Journal the accepted patch (the raw wire edits, replayed verbatim on
     recovery) before the acknowledging response is built.  [program] is
     the post-patch canonical text — the compaction snapshot, printed
     only on the appends that actually compact. *)
  (match cfg.journal with
  | None -> ()
  | Some j ->
    (match
       Hjournal.record_patch j ~handle:d.Protocol.d_handle ~edits:d.Protocol.d_edits_json
         ~algorithm:entry.Handles.algorithm ~simplify:entry.Handles.simplify
         ~program:(fun () -> Cfg.to_string g)
     with
    | Ok `Appended -> Stats.bump cfg.m.Smetrics.journal_appends
    | Ok `Compacted ->
      Stats.bump cfg.m.Smetrics.journal_appends;
      Stats.bump cfg.m.Smetrics.journal_compactions
    | Error _ -> Stats.bump cfg.m.Smetrics.journal_append_failures));
  (* The first response after a journal rebuild tells the client its
     handle crossed a crash: state is intact, latency may have spiked. *)
  let recovered_fields =
    if Hashtbl.mem cfg.recovered d.Protocol.d_handle then begin
      Hashtbl.remove cfg.recovered d.Protocol.d_handle;
      [ ("recovered", Json.Bool true) ]
    end
    else []
  in
  let before = Metrics.static_counts g and after = Metrics.static_counts g' in
  let solve =
    Json.Obj
      ([
         ("mode", Json.String mode);
         ("blocks", Json.Int (Cfg.num_blocks g));
         ("region_blocks", Json.Int region);
         ("visits", Json.Int a.Lcm_edge.visits);
       ]
      @ match full_visits with Some v -> [ ("full_visits", Json.Int v) ] | None -> [])
  in
  Protocol.ok_delta_graph ~id ~trace_id ~algorithm:entry.Handles.algorithm
    ~validated:d.Protocol.d_validate
    ~extra:
      (worker_fields cfg
      @ [ ("handle", Json.String d.Protocol.d_handle); ("solve", solve) ]
      @ recovered_fields)
    ~program:g' ~before ~after ~timing:(timing_of ()) ()

(* ---- crash recovery ----

   Replay one recovered journal: parse the base (or compacted snapshot)
   program, solve it with the keep path, then push every journaled patch
   through the exact pipeline a live delta takes — same wire-edit parser,
   same [Patch.apply], same incremental restart with the same full-solve
   fallback.  Determinism of that pipeline is what makes the journal a
   faithful substitute for the lost heap state: the rebuilt capture is
   bit-identical to the one the dead worker held (the qcheck suite and
   [d_validate] both assert this). *)

let replay_journal cfg (r : Hjournal.recovered) =
  try
    Fault.inject "journal.replay";
    let g =
      try Cfg_text.parse r.Hjournal.r_program
      with Cfg_text.Parse_error (m, line) -> failwith (Printf.sprintf "base parse: line %d: %s" line m)
    in
    let _, saved = Lcm_edge.analyze_keep g in
    let state = ref (g, saved) in
    let replayed = ref 0 in
    List.iter
      (fun edits_json ->
        let edits =
          match Protocol.delta_edits_of_json edits_json with
          | Ok es -> es
          | Error m -> failwith ("patch record: " ^ m)
        in
        let d =
          {
            Protocol.d_handle = r.Hjournal.r_handle;
            d_edits = edits;
            d_edits_json = edits_json;
            d_validate = false;
          }
        in
        let patch = edits_of_wire d in
        let g0, saved0 = !state in
        let g = Cfg.copy g0 in
        let dirty =
          try Patch.apply g patch with Patch.Error m -> failwith ("patch apply: " ^ m)
        in
        let _, saved, region = with_delta_arena g saved0 (fun arena -> resolve_patched arena g ~prev:saved0 ~dirty) in
        if Option.is_none region then Stats.bump cfg.m.Smetrics.delta_full;
        incr replayed;
        state := (g, saved))
      r.Hjournal.r_patches;
    let (`Evicted evicted) =
      Handles.restore cfg.handles r.Hjournal.r_handle
        {
          Handles.algorithm = r.Hjournal.r_algorithm;
          simplify = r.Hjournal.r_simplify;
          state = !state;
        }
    in
    Stats.bump cfg.m.Smetrics.handles_live;
    drop_evicted cfg evicted;
    Ok !replayed
  with
  | Failure m -> Error m
  | Reject (_, m) -> Error m
  | Fault.Injected p -> Error ("fault injected: " ^ p)
  | e -> Error (Printexc.to_string e)

let recover cfg =
  match cfg.journal with
  | None -> ()
  | Some j ->
    let entries, truncated, quarantined = Hjournal.recover j in
    if truncated > 0 then Stats.bump ~by:truncated cfg.m.Smetrics.journal_truncated;
    if quarantined > 0 then Stats.bump ~by:quarantined cfg.m.Smetrics.journal_quarantined;
    List.iter
      (fun (r : Hjournal.recovered) ->
        match replay_journal cfg r with
        | Ok patches ->
          Stats.bump cfg.m.Smetrics.journal_recovered;
          if patches > 0 then Stats.bump ~by:patches cfg.m.Smetrics.journal_replayed_patches;
          Hashtbl.replace cfg.recovered r.Hjournal.r_handle ()
        | Error _ ->
          (* An unreplayable journal must not block startup: set it aside
             and serve without that handle (its next delta gets
             [unknown_handle] and the client re-retains). *)
          Hjournal.quarantine j ~handle:r.Hjournal.r_handle;
          Stats.bump cfg.m.Smetrics.journal_quarantined)
      entries

(* Cancellable sleep: 1 ms slices with a deadline check between slices —
   the test/benchmark stand-in for a pathologically slow (or
   non-terminating) request. *)
let execute_sleep ~now ~deadline ~id ~trace_id duration_ms ~timing_of =
  let t0 = now () in
  let finish = t0 +. (duration_ms /. 1000.) in
  let rec go () =
    check_deadline ~now ~deadline;
    let remaining = finish -. now () in
    if remaining > 0. then begin
      Unix.sleepf (Float.min 0.001 remaining);
      go ()
    end
  in
  go ();
  Protocol.ok_sleep ~id ~trace_id ~slept_ms:((now () -. t0) *. 1000.) ~timing:(timing_of ()) ()

(* The stats snapshot, extended with the fault registry's counters when
   chaos is enabled — so a chaos run's injection counts are observable
   through the same `stats` op as everything else — and with the scratch
   footprint of this domain's parked arenas.  GC progress is folded into
   the gc.* counters right before snapshotting so the [stats] op is always
   fresh. *)
let stats_snapshot stats =
  Stats.record_gc stats;
  let base = Stats.snapshot stats in
  let chaos_fields =
    match Fault.counts () with
    | [] -> []
    | cs ->
      [
        ( "chaos",
          Json.Obj
            (List.map
               (fun (p, occ, fired) ->
                 (p, Json.Obj [ ("occurrences", Json.Int occ); ("fired", Json.Int fired) ]))
               cs) );
      ]
  in
  let arena_fields =
    [ ("arena", Json.Obj [ ("retained_words", Json.Int (Pool.Scratch.domain_retained_words ())) ]) ]
  in
  match base with
  | Json.Obj fields -> Json.Obj (fields @ chaos_fields @ arena_fields)
  | j -> j

(* [trace_id]: the caller (daemon) resolves the id so it can also name the
   per-trace file; direct callers may omit it, in which case the request's
   own id is used or a fresh one minted.  The whole execution runs under a
   ["request"] root span of that trace, so the pipeline's spans — recorded
   on whatever pool domain the work lands on — reassemble into one tree. *)
let execute cfg ~now ~arrival ~deadline ?trace_id (req : Protocol.request) =
  let id = req.Protocol.id in
  let trace_id =
    match (trace_id, req.Protocol.trace_id) with
    | Some t, _ -> t
    | None, Some t -> t
    | None, None -> Trace.mint_id ()
  in
  let start = now () in
  let queue_ms = Float.max 0. ((start -. arrival) *. 1000.) in
  let timing_of () =
    if cfg.no_timing then None
    else Some { Protocol.queue_ms; run_ms = (now () -. start) *. 1000. }
  in
  let fail code message =
    Smetrics.error cfg.m code;
    Protocol.error ~id ~trace_id ~code ~message ()
  in
  let frame =
    Trace.in_trace ~trace_id "request" (fun () ->
        try
          check_deadline ~now ~deadline;
          let frame =
            match req.Protocol.op with
            | Protocol.Run r when r.Protocol.retain ->
              execute_retain cfg ~now ~deadline ~id ~trace_id r ~timing_of
            | Protocol.Run r -> execute_run cfg ~now ~deadline ~id ~trace_id r ~timing_of
            | Protocol.Delta d -> execute_delta cfg ~now ~deadline ~id ~trace_id d ~timing_of
            | Protocol.Stats -> Protocol.ok_stats ~id ~trace_id ~stats:(stats_snapshot cfg.stats) ()
            | Protocol.Profile -> Protocol.ok_profile ~id ~trace_id ~profile:(Prof.to_json cfg.prof) ()
            | Protocol.Ping -> Protocol.ok_ping ~id ~trace_id ()
            | Protocol.Sleep d -> execute_sleep ~now ~deadline ~id ~trace_id d ~timing_of
          in
          Stats.bump cfg.m.Smetrics.responses_ok;
          frame
        with
        | Deadline -> fail Protocol.Deadline_exceeded "deadline exceeded during execution"
        | Reject (code, m) -> fail code m
        | Stack_overflow -> fail Protocol.Internal "stack overflow"
        | e -> fail Protocol.Internal ("request crashed: " ^ Printexc.to_string e))
  in
  let run_ms = (now () -. start) *. 1000. in
  Stats.observe cfg.m.Smetrics.queue_delay queue_ms;
  Stats.observe cfg.m.Smetrics.run run_ms;
  Stats.observe cfg.m.Smetrics.total (queue_ms +. run_ms);
  frame
