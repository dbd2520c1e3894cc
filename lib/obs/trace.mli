(** Hierarchical tracing with per-domain span buffers.

    A {e span} is one timed region of work — a dataflow solve, a pipeline
    pass, a request — with a name, wall-clock start/stop, the domain it ran
    on, allocation delta, a parent link, and the id of the {e trace} (one
    request end-to-end) it belongs to.  Spans form trees: opening a span
    inside another makes the inner one a child.

    Collection discipline copies {!Lcm_support.Fault}: the production state
    is disabled, and a disabled probe costs one atomic load — {!span} with
    no collector installed is [f ()] plus a branch.  When enabled, each
    domain appends finished spans to its own mutex-guarded buffer, so
    pool workers (a daemon batch, a corpus fan-out) record without
    contention on a shared structure; buffers are registered once per domain in a global
    collector.

    The clock is [Unix.gettimeofday].  The repository deliberately has no
    third-party clock dependency; at the granularity traced here (dataflow
    solves, requests) wall time is the quantity of interest, and span
    durations are computed from two reads on the same domain.

    Context (current trace id + parent span) lives in domain-local storage.
    It does not follow work submitted to other domains by itself;
    {!Lcm_support.Pool} captures the submitter's context and reinstalls it
    around each task (see {!current}/{!with_ctx}), which is what keeps
    span trees connected across the domain pool. *)

type span = {
  id : int;  (** unique per process *)
  parent : int;  (** parent span id, [-1] for a root *)
  trace_id : string;
  name : string;
  domain : int;  (** domain the span ran on *)
  t_start : float;  (** seconds, Unix epoch *)
  t_end : float;
  alloc_w : float;  (** words allocated on this domain during the span *)
  attrs : (string * string) list;
}

(** Duration in seconds. *)
val dur : span -> float

(** {2 Collector lifecycle} *)

(** One atomic load; [false] in production. *)
val enabled : unit -> bool

(** Install a fresh collector (idempotent in effect: a new empty one). *)
val enable : unit -> unit

(** Drop the collector; subsequent probes cost one atomic load again. *)
val disable : unit -> unit

(** {2 Trace context} *)

type ctx = {
  trace_id : string;
  parent : int;  (** span id new children attach to; [-1] at a trace root *)
}

(** Mint a fresh trace id, ["t-1"], ["t-2"], … in process order. *)
val mint_id : unit -> string

(** The calling domain's current context, if any. *)
val current : unit -> ctx option

(** [with_ctx c f] runs [f] with the domain's context set to [c], restoring
    the previous context afterwards (also on exceptions).  Used by the
    domain pool to carry the submitter's context onto worker domains. *)
val with_ctx : ctx option -> (unit -> 'a) -> 'a

(** {2 Recording} *)

(** [in_trace ~trace_id name f] opens a root span [name] belonging to
    [trace_id] around [f].  When disabled this is [f ()]. *)
val in_trace : trace_id:string -> string -> (unit -> 'a) -> 'a

(** [span name f] records a child span around [f] under the current
    context.  Outside any context, or when disabled, this is [f ()].
    If [f] raises, the span is recorded with an ["error"] attribute and
    the exception is re-raised. *)
val span : string -> (unit -> 'a) -> 'a

(** [span_attrs name f] — like {!span}, but [f] returns [(value, attrs)]
    and the attributes are recorded on the span (e.g. solver iteration
    counts known only after the solve). *)
val span_attrs : string -> (unit -> 'a * (string * string) list) -> 'a

(** {2 Draining} *)

(** Remove and return every finished span, across all domains, ordered by
    start time.  [] when disabled. *)
val drain : unit -> span list

(** Remove and return the finished spans of one trace, ordered by start
    time, leaving other traces' spans buffered.  [] when disabled. *)
val take : trace_id:string -> span list

(** {2 Exporters} *)

(** One Chrome [trace_event] complete event ([ph:"X"], µs timestamps,
    pid = OS process, tid = domain).  Span identity, parentage, trace id
    and attributes ride in ["args"]. *)
val chrome_event : span -> Json.t

(** A complete Chrome trace document: a JSON array of {!chrome_event}s,
    loadable by chrome://tracing and Perfetto.  Note the format also
    accepts an {e unterminated} array, which is what lets a daemon append
    events to a per-trace file across retries and restarts without a
    read-modify-write. *)
val to_chrome : span list -> string

(** One compact JSON object per span, one per line (the JSON-lines sink). *)
val span_json : span -> Json.t

val to_jsonl : span list -> string
