(** The serving protocol: typed requests/responses over JSON-lines frames.

    See docs/PROTOCOL.md for the normative wire description.  Each frame
    is one JSON object.  Requests carry an [op] ([run], [stats], [ping],
    [sleep]), an optional client-chosen [id] (echoed verbatim in the
    response), and an optional relative [deadline_ms].  Responses carry
    [status] ["ok"] or ["error"]; errors have a stable [code] from
    {!error_code} plus a human-readable [message]. *)

type error_code =
  | Bad_request  (** missing/ill-typed field, unknown op or algorithm *)
  | Parse_error  (** the embedded program failed to lex/parse *)
  | Oversized  (** frame longer than the daemon's [--max-frame] *)
  | Overloaded  (** admission queue at its high-water mark *)
  | Deadline_exceeded  (** deadline hit before or between pipeline phases *)
  | Fuel_exhausted
      (** requested interpreter validation could not finish within its
          step budget on any sample input (distinct from a deadline: the
          *work* is unbounded, not the wall clock) *)
  | Unknown_handle
      (** a [delta] named a handle this worker does not hold — never
          issued, evicted, or (without [--state-dir]) lost with a crashed
          worker.  With a state dir, handles are journaled and rebuilt on
          respawn, so a crash alone no longer produces this code *)
  | Poisoned_request
      (** the request's processing coincided with a worker death twice;
          the router quarantines it instead of replaying it onto yet
          another worker (a deterministically crashing request would
          otherwise cycle the ring) *)
  | Shutting_down  (** daemon draining; no new work admitted *)
  | Unsupported_format
      (** the request's [format] names no registered frontend; the
          message lists the registered names *)
  | Internal  (** the request crashed; the daemon survives *)

val error_code_to_string : error_code -> string

type run_request = {
  program : string;
  format : string;
      (** a {!Lcm_frontend.Frontend} name ("miniimp", "cfg", "bril", …).
          When the request carries no [format] field the value is sniffed
          from the program text ("cfg " prefix → cfg, leading '{' → bril,
          otherwise miniimp), so pre-existing requests keep their exact
          historical behavior.  Unknown names are carried through verbatim
          and rejected by the engine with {!Unsupported_format}. *)
  func : string option;  (** function to pick when the format defines several *)
  algorithm : string;  (** a {!Lcm_eval.Registry} name *)
  simplify : bool;  (** merge straight-line blocks after the transformation *)
  validate : bool;
      (** verify the transformation before answering (placement check /
          interpreter comparison); the response carries [validated:true] *)
  retain : bool;
      (** keep the parsed graph and its solved fixpoints on the worker and
          mint a handle for later [delta] requests; the response carries
          [handle] and echoes the canonical (renumbered) program as
          [retained_program] — [delta] block names address that
          numbering *)
}

(** One edit of a retained graph, in {!Lcm_cfg.Cfg_text} line syntax.
    Exactly one of [d_block] (edit that block) or [d_add] (append a fresh
    block, whose name must be the graph's next label) is set. *)
type delta_edit = {
  d_block : string option;  (** canonical block name, e.g. ["B3"] *)
  d_add : bool;
  d_instrs : string list option;  (** replacement body, one instruction per string *)
  d_term : string option;  (** replacement terminator line *)
}

type delta_request = {
  d_handle : string;
  d_edits : delta_edit list;  (** applied in order; non-empty *)
  d_edits_json : Json.t;
      (** the raw [edits] value as received — journaled verbatim so
          crash-recovery replays the byte-identical patch through this
          same parser *)
  d_validate : bool;
      (** additionally run a from-scratch solve on the patched graph and
          assert the incremental result's digest is bit-identical; the
          response's [solve] object then also carries [full_visits] *)
}

type op =
  | Run of run_request
  | Delta of delta_request
      (** patch a retained graph and re-solve incrementally from the dirty
          frontier *)
  | Stats
  | Profile  (** per-phase time/allocation aggregates from the tracing layer *)
  | Ping
  | Sleep of float  (** milliseconds; testing/benchmark aid, cancellable at 1 ms grain *)

type request = {
  id : Json.t;  (** [Null] when the client sent none *)
  trace_id : string option;
      (** client-chosen trace correlation id; the server mints one when
          absent, and every response (including errors) echoes the one in
          effect.  A client that reuses its id across retries gets all the
          attempts recorded under one trace. *)
  op : op;
  deadline_ms : float option;
}

(** Parse one frame.  On error, the result carries the request [id] and
    [trace_id] when they could be recovered (so the error response still
    correlates).  A run's [workers] field is accepted for compatibility and
    type-checked (an integer or absent), then ignored. *)
val parse_request : string -> (request, Json.t * string option * error_code * string) result

(** Parse a journaled [edits] value (the same grammar as the [edits]
    field of a [delta] request).  Used by crash recovery to replay
    patch records through the identical code path. *)
val delta_edits_of_json : Json.t -> (delta_edit list, string) result

(** {2 Response frames} — each returns a complete single-line frame. *)

type timing = {
  queue_ms : float;  (** admission to start of execution *)
  run_ms : float;  (** execution proper *)
}

(** The canonical text of a graph as a JSON string value, written
    straight into the response that carries it from the blocks' memoised
    escaped texts ({!Lcm_cfg.Cfg.json}); valid until the graph is next
    edited. *)
val program_json : Lcm_cfg.Cfg.t -> Json.t

(** Response to a [run]: [program] is the transformed graph, encoded with
    {!program_json}.  The frame is byte-identical to {!ok_run} of its
    canonical text. *)
val ok_run_graph :
  id:Json.t ->
  ?trace_id:string ->
  algorithm:string ->
  workers:int ->
  degraded:string option ->
  validated:bool ->
  ?extra:(string * Json.t) list ->
  program:Lcm_cfg.Cfg.t ->
  before:Lcm_eval.Metrics.static_counts ->
  after:Lcm_eval.Metrics.static_counts ->
  timing:timing option ->
  unit ->
  string

(** {!ok_run_graph} of a program already printed: the same encoder with
    the text escaped as a plain string. *)
val ok_run :
  id:Json.t ->
  ?trace_id:string ->
  algorithm:string ->
  workers:int ->
  degraded:string option ->
  validated:bool ->
  ?extra:(string * Json.t) list ->
  program:string ->
  before:Lcm_eval.Metrics.static_counts ->
  after:Lcm_eval.Metrics.static_counts ->
  timing:timing option ->
  unit ->
  string
(** [workers] is reported as given; the engine always passes 1 (every
    run is one sequential solve).  [degraded] is [Some "identity"] when
    the solve faulted mid-pipeline and the unchanged program was served;
    [None] (field absent) on the normal path.
    [extra] fields (serving metadata: [worker], [handle], [cache], …) are
    appended after the payload, before timing; default none, so existing
    frames are byte-identical.  [trace_id], on every builder below too, is
    the trace correlation id in effect (absent only when the server could
    not determine one). *)

(** Response to a [delta]: same payload shape as a run ([op] is
    ["delta"]); the engine puts the [solve] object — mode, region size,
    visit counts — in [extra]. *)
val ok_delta_graph :
  id:Json.t ->
  ?trace_id:string ->
  algorithm:string ->
  validated:bool ->
  ?extra:(string * Json.t) list ->
  program:Lcm_cfg.Cfg.t ->
  before:Lcm_eval.Metrics.static_counts ->
  after:Lcm_eval.Metrics.static_counts ->
  timing:timing option ->
  unit ->
  string

(** {!ok_delta_graph} of a program already printed. *)
val ok_delta :
  id:Json.t ->
  ?trace_id:string ->
  algorithm:string ->
  validated:bool ->
  ?extra:(string * Json.t) list ->
  program:string ->
  before:Lcm_eval.Metrics.static_counts ->
  after:Lcm_eval.Metrics.static_counts ->
  timing:timing option ->
  unit ->
  string

val ok_stats : id:Json.t -> ?trace_id:string -> stats:Json.t -> unit -> string
val ok_profile : id:Json.t -> ?trace_id:string -> profile:Json.t -> unit -> string
val ok_ping : id:Json.t -> ?trace_id:string -> unit -> string
val ok_sleep : id:Json.t -> ?trace_id:string -> slept_ms:float -> timing:timing option -> unit -> string
val error : id:Json.t -> ?trace_id:string -> code:error_code -> message:string -> unit -> string
