(** The shard router: one front process, N worker daemons.

    [serve_*] forks [shards] worker processes, each running a full
    {!Lcm_server.Daemon} on a private Unix socket, and then runs a
    single-threaded event loop that multiplexes client frames onto them:

    - [run] requests are routed by the {e canonical} program digest over
      a consistent-hash ring ({!Lcm_support.Chash}) — identical graphs,
      however the client happened to label them, always land on the same
      worker — and are fronted by a digest-keyed LRU result cache
      ({!Cache}): a repeated request is answered from the router without
      any worker (the response carries ["cache":"hit"]).  Identical
      requests {e in flight} coalesce: duplicates wait for the first
      copy's answer instead of being forwarded again.
    - [delta] requests are routed by the worker index baked into their
      handle.  Without [state_dir], a handle whose worker is gone gets
      [unknown_handle]; with it, the worker is merely {e recovering} —
      frames for it are parked and replayed onto the respawned worker
      after it has rebuilt every handle from its write-ahead journal
      ({!Lcm_server.Hjournal}).
    - [stats] broadcasts to every live worker and merges the snapshots
      (additively, schema-checked) with the router's own counters, plus a
      ["shard"] object describing the fleet (pids, restarts, liveness).
    - [ping] is answered inline; [profile] and [sleep] are proxied.

    Crash transparency: when a worker dies mid-request, its in-flight
    [run]s are replayed — same frame, same [trace_id] — on the ring
    successor ([shard.retries_total] and [shard.replays_total] count
    these), with hops capped at the ring size; its [delta]s are parked
    for the respawned worker (journaled) or answer [unknown_handle]
    (not).  A request whose processing coincides with {e two} worker
    deaths is quarantined: it gets the typed [poisoned_request] error
    instead of a third chance to take a worker down
    ([shard.poisoned_total]).  The dead worker is reaped and respawned
    with capped exponential backoff and a fresh chaos epoch, exactly
    like the PR 4 supervisor, so a fixed [LCM_CHAOS] seed cannot replay
    the same crash schedule forever.

    The router holds no solver state: everything it serves from the cache
    was computed (and optionally validated) by a worker first — and every
    cache hit is re-verified against the CRC taken at insert before it is
    sent (a corrupt entry is dropped, counted in
    [shard.cache_corrupt_total], and the request solved afresh). *)

type config = {
  shards : int;  (** worker processes (>= 1) *)
  cache_capacity : int;  (** result cache entries; 0 disables caching *)
  replicas : int;  (** virtual nodes per worker on the hash ring *)
  daemon : Lcm_server.Daemon.config;
      (** template for the forked workers; [worker_id], [state_file] and
          [stats] are overridden per worker *)
  socket_dir : string option;  (** worker socket directory (default: a fresh temp dir) *)
  state_dir : string option;
      (** when set, each worker [i] is forked with
          [Daemon.state_dir = <dir>/worker-<i>] — retained handles are
          journaled and survive worker [kill -9] (default: none) *)
  quiet : bool;
  stats : Lcm_server.Stats.t;
      (** the router's own registry (routing/cache/retry counters) *)
}

val default_config : unit -> config

(** Respawn delay of a dead worker: its [k]-th consecutive quick death
    (one within 2 s of its start) waits
    [Retry.backoff_ms respawn_backoff ~attempt:(k - 1)], i.e. 50 ms
    doubling to a 1 s cap. *)
val respawn_backoff : Lcm_server.Retry.policy

(** Ask a running router loop to drain: stop admitting, finish in-flight
    work, terminate the workers, return.  Async-signal-safe. *)
val request_shutdown : unit -> unit

(** Serve one pre-connected peer (stdio mode: [lcmopt serve --stdio
    --shards N]).  Returns after end-of-input once every pending response
    has been written and the workers are torn down. *)
val serve_fds : config -> fd_in:Unix.file_descr -> fd_out:Unix.file_descr -> unit

(** Accept clients on a Unix-domain socket at [path] until
    {!request_shutdown}. *)
val serve_unix_socket : config -> path:string -> unit
