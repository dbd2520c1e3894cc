(** The unified optimizer-pass API.

    Every transformation in the repository — the paper's BCM/LCM family,
    the baselines, the cleanup passes — runs under one signature: a named
    [run : ctx -> Cfg.t -> Cfg.t * report].  The context carries the
    execution environment (the request's scratch arena); the
    report carries what the caller may want downstream: solver iteration
    counts, the transformation spec when the pass exposes one (for cheap
    static validation), and free-form notes.

    Instrumentation comes from the harness, not from per-pass boilerplate:
    {!run} wraps the pass in a ["pass.<name>"] {!Lcm_obs.Trace} span with
    the report's counts as attributes, and {!Pipeline.run} wraps a pass
    sequence in a ["pipeline.<name>"] span, threading the graph through
    while the domain-local trace context threads itself. *)

type ctx = {
  scratch : Lcm_support.Arena.t option;
      (** per-request scratch arena for the analyses' solver state; [None]
          = heap-allocate as before.  Results are bit-identical either way;
          the report's spec vectors are arena-backed when set, so the
          caller must consume them before the arena resets. *)
}

(** No arena. *)
val default_ctx : ctx

type report = {
  sweeps : int;  (** data-flow sweeps, summed over the pass's solves *)
  visits : int;  (** transfer-function applications, likewise *)
  spec : Transform.spec option;
      (** the code-motion decision, when the pass is a direct spec
          application on the input graph (enables static validation) *)
  notes : (string * string) list;  (** free-form, recorded as span attributes *)
}

val report :
  ?sweeps:int -> ?visits:int -> ?spec:Transform.spec -> ?notes:(string * string) list -> unit -> report

type t = {
  name : string;
  run : ctx -> Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t * report;
}

val v : string -> (ctx -> Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t * report) -> t

(** Lift a plain graph transformer (empty report). *)
val of_fn : string -> (Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t) -> t

(** Run one pass under its instrumentation span. *)
val run : ctx -> t -> Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t * report

(** Structural cleanup as a pass: merge straight-line block pairs, drop
    unreachable blocks (on a copy). *)
val simplify : t

module Pipeline : sig
  type pass = t

  type t = {
    name : string;
    passes : pass list;
  }

  val v : string -> pass list -> t

  (** Append passes (e.g. a trailing {!simplify}). *)
  val append : t -> pass list -> t

  (** Run the passes in order, collecting each pass's report. *)
  val run : ctx -> t -> Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t * (string * report) list

  (** {!run} without the reports. *)
  val run_graph : ctx -> t -> Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t
end
