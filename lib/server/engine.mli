(** Request execution: one protocol request through the LCM pipeline.

    The engine is where the subsystem's three per-request guarantees live:

    - {b deadlines}: a request's absolute deadline is checked before it
      starts and between pipeline phases (program parse → analysis +
      transformation → simplify → metrics + print; [sleep] checks at a
      1 ms grain), so an expired request turns into a structured
      [deadline_exceeded] error at the next phase boundary instead of
      occupying a domain indefinitely;
    - {b panic isolation}: any exception escaping the pipeline becomes an
      [internal] error response — a crashing request never kills the
      daemon;
    - {b degradation}: a run request is one sequential solve; when it
      faults mid-pipeline the request is answered with the unchanged
      program, marked [degraded:"identity"].  Every run response reports
      [workers = 1], whatever the request asked for.

    Every transformation goes through the entry's
    {!Lcm_eval.Registry.entry.pipeline} ({!Lcm_core.Pass.Pipeline.run}),
    so the engine needs no per-algorithm cases and each request's work is
    recorded as a pass-span tree under its ["request"] root span.

    [execute] never raises. *)

type config = {
  lookup : string -> Lcm_eval.Registry.entry option;  (** algorithm resolver (injectable for tests) *)
  stats : Stats.t;
  m : Smetrics.t;  (** typed handles over [stats] *)
  prof : Lcm_obs.Prof.t;  (** per-phase aggregates, served by the [profile] op *)
  no_timing : bool;  (** omit timing fields from responses (golden tests) *)
  worker_id : int option;
      (** shard worker index; when set, run/delta responses carry a
          ["worker"] field so clients see who served them *)
  handles : Handles.t;  (** retained graphs for the [delta] op *)
  journal : Hjournal.t option;
      (** when set ([--state-dir]), every retain/delta is journaled
          before its response is sent, and {!recover} can rebuild the
          handle table after a crash *)
  recovered : (string, unit) Hashtbl.t;
      (** handles rebuilt by {!recover} whose next delta response must
          carry [recovered:true] (cleared per handle once told) *)
}

val default_config :
  ?no_timing:bool ->
  ?worker_id:int ->
  ?handle_capacity:int ->
  ?journal:Hjournal.t ->
  Stats.t ->
  config

(** Rebuild the handle table from [config.journal]'s directory: each
    journal's base program is re-solved and its patch log replayed
    through the same parse/patch/incremental-restart pipeline live
    deltas take, restoring every handle under its original id.  Journals
    that cannot be replayed are quarantined ([*.corrupt]) — recovery
    never prevents startup.  Call before serving traffic; no-op without
    a journal. *)
val recover : config -> unit

(** [execute cfg ~now ~arrival ~deadline req] runs [req] and returns the
    response frame.  [arrival] is the admission timestamp (for the queue
    delay metric); [deadline] is absolute, on [now]'s clock.  [trace_id]
    overrides the trace the request records under (the daemon resolves one
    id per request so the per-trace file and the response agree); when
    omitted, the request's own [trace_id] is used, or a fresh one minted. *)
val execute :
  config ->
  now:(unit -> float) ->
  arrival:float ->
  deadline:float option ->
  ?trace_id:string ->
  Protocol.request ->
  string
