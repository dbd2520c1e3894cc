(** A fixed-size pool of domains draining a shared task queue.

    Two layers fan work out across domains: the daemon runs each batch of
    admitted requests as one [run], and {!Lcm_eval.Corpus.process} runs
    one task per function of a corpus.  Each task is one sequential
    solve.  A task must not submit a batch to its own pool: [run] refuses
    it with [Invalid_argument].

    A pool of size 1 spawns no domains and executes everything in the
    calling thread, in order — the sequential fallback path. *)

type t

(** [create n] is a pool of [n] domains in total: the caller of {!run}
    counts as one, so [n - 1] worker domains are spawned.  Raises
    [Invalid_argument] when [n < 1]. *)
val create : int -> t

(** Total parallelism (worker domains + the calling thread). *)
val size : t -> int

(** [run t tasks] executes every task and returns when all are finished.
    Tasks of one batch may run concurrently on different domains, in any
    order; the caller participates.  If any task raises, the first
    exception observed is re-raised after the whole batch has drained.
    Raises [Invalid_argument] when called from inside a task of [t]: a
    nested batch.

    Tasks must synchronize their own shared state; writes made by a task
    are visible to the caller after [run] returns (the queue's mutex
    orders them). *)
val run : t -> (unit -> unit) list -> unit

(** Joins the worker domains.  The pool must be idle; [run] must not be
    called afterwards. *)
val shutdown : t -> unit

(** Name of the environment variable overriding {!default_size}:
    ["LCM_DOMAINS"].  CI runs the test suite with it forced to 1 and to 4
    so both the sequential-fallback and the parallel paths are covered. *)
val env_var : string

(** Default pool width (the daemon's [--workers]): [$LCM_DOMAINS] when set
    to a positive integer, otherwise [Domain.recommended_domain_count ()]
    capped at 8. *)
val default_size : unit -> int

(** [clamp_workers ~cores n] is an explicitly requested daemon pool width
    [n] capped at [cores] (pass [Domain.recommended_domain_count ()]): more
    domains than cores oversubscribe.  Widths at or below [cores], and any
    width when [cores < 1], pass through unchanged. *)
val clamp_workers : cores:int -> int -> int

(** Per-domain pools of scratch {!Arena.t}s, keyed by shape class.  The
    engine wraps each request's solve in {!Scratch.with_arena}; the arena
    is reclaimed (and parked back on this domain's freelist) even when the
    request panics. *)
module Scratch : sig
  (** [shape_class ~blocks ~exprs] rounds both axes up to powers of two
      (floor 16): requests whose shapes land in the same class share
      arenas, so near-miss shapes don't fragment the pools. *)
  val shape_class : blocks:int -> exprs:int -> int * int

  (** [with_arena ~blocks ~exprs f] checks an arena for the shape class out
      of this domain's freelist (creating one on first use), runs [f] with
      it, and — panic or not — resets it and parks it back.  Reentrant:
      nested checkouts pop distinct arenas. *)
  val with_arena : blocks:int -> exprs:int -> (Arena.t -> 'a) -> 'a

  (** Words retained by the calling domain's parked arenas (steady-state
      scratch footprint, surfaced as a stats gauge). *)
  val domain_retained_words : unit -> int
end
