(** The serving layer's metrics, as typed {!Stats} handles.

    Every counter and histogram the engine, daemon and supervisor touch is
    declared here exactly once; call sites hold a handle, never a raw name
    string, so an instrument cannot be split across misspelled keys (a
    test greps for stray [Stats.incr]/[Stats.observe_ms] in the serving
    code).  Wire names are unchanged from previous releases — dashboards
    and the stats snapshot see the same keys. *)

type t = {
  frames_total : Stats.counter;
  requests_total : Stats.counter;
  responses_ok : Stats.counter;
  errors_total : Stats.counter;
  rejected_overloaded : Stats.counter;
  rejected_oversized : Stats.counter;
  batches_total : Stats.counter;
  dispatch_failures : Stats.counter;  (** wire name [dispatch_failures_total] *)
  accept_failures : Stats.counter;  (** wire name [accept_failures_total] *)
  connections_total : Stats.counter;
  tier_fallbacks : Stats.counter;  (** wire name [engine.tier_fallbacks] *)
  arena_checkouts : Stats.counter;  (** wire name [arena.checkouts_total] *)
  arena_misses : Stats.counter;
      (** wire name [arena.misses_total]: scratch checkouts that had to
          heap-allocate; stops growing once the shape classes are warm *)
  alloc_words : Stats.counter;
      (** wire name [engine.alloc_words_total]: minor-heap words allocated
          while executing run requests (per-request GC deltas, summed) *)
  degraded_total : Stats.counter;
  degraded_identity : Stats.counter;
      (** wire name [degraded.identity]: run requests answered with the
          unchanged program after the solve faulted *)
  validated_total : Stats.counter;
  restarts_total : Stats.counter;  (** wire name [supervisor.restarts_total] *)
  restarts_signal : Stats.counter;  (** wire name [supervisor.restarts.signal] *)
  restarts_exit : Stats.counter;  (** wire name [supervisor.restarts.exit] *)
  deltas_total : Stats.counter;
  delta_incremental : Stats.counter;
      (** wire name [delta.incremental_total]: deltas served from the
          retained fixpoint (region re-solve) *)
  delta_full : Stats.counter;
      (** wire name [delta.full_total]: deltas, live or replayed from a
          journal, that fell back to a from-scratch solve: an added
          candidate over a name the capture's numbering lacks, or a pool
          change with a shape edit, past the rows' width in words, or in a
          graph with a block that cannot reach the exit *)
  handles_live : Stats.counter;  (** wire name [handles.registered_total] *)
  handles_evicted : Stats.counter;  (** wire name [handles.evicted_total] *)
  cache_hits : Stats.counter;
      (** wire name [cache.hits_total]: run responses served from the
          router's content-addressed cache, no worker involved *)
  cache_misses : Stats.counter;  (** wire name [cache.misses_total] *)
  cache_evictions : Stats.counter;  (** wire name [cache.evictions_total] *)
  digest_memo_hits : Stats.counter;
      (** wire name [shard.digest_memo_hits_total]: run requests whose
          canonical digest was recalled from the router's raw-text memo,
          skipping the canonicalizing reparse *)
  shard_retries : Stats.counter;
      (** wire name [shard.retries_total]: requests replayed on a sibling
          after their worker died mid-request *)
  shard_restarts : Stats.counter;  (** wire name [shard.worker_restarts_total] *)
  shard_replays : Stats.counter;
      (** wire name [shard.replays_total]: every in-flight frame replayed
          after a worker death — onto a ring sibling (runs) or back onto
          the recovering worker (journaled deltas) *)
  shard_poisoned : Stats.counter;
      (** wire name [shard.poisoned_total]: requests quarantined with
          [poisoned_request] after coinciding with two worker deaths *)
  shard_held : Stats.counter;
      (** wire name [shard.held_frames_total]: deltas parked at the router
          while their worker's handles are being rebuilt from journal *)
  cache_corrupt : Stats.counter;
      (** wire name [shard.cache_corrupt_total]: LRU hits whose payload
          failed the integrity check and fell through to a solve *)
  journal_appends : Stats.counter;  (** wire name [journal.appends_total] *)
  journal_append_failures : Stats.counter;
      (** wire name [journal.append_failures_total]: records that could
          not be made durable; serving continues, durability degrades *)
  journal_compactions : Stats.counter;  (** wire name [journal.compactions_total] *)
  journal_recovered : Stats.counter;
      (** wire name [journal.recovered_handles_total]: handles rebuilt
          from journal on respawn *)
  journal_replayed_patches : Stats.counter;  (** wire name [journal.replayed_patches_total] *)
  journal_truncated : Stats.counter;
      (** wire name [journal.truncated_tails_total]: torn tails cut off
          journal files during recovery *)
  journal_quarantined : Stats.counter;
      (** wire name [journal.quarantined_total]: journals set aside as
          [*.corrupt] because they could not be read or replayed *)
  queue_delay : Stats.histo;
  run : Stats.histo;
  total : Stats.histo;
  batch_size : Stats.histo;
  error_by_code : Protocol.error_code -> Stats.counter;  (** wire name [errors.<code>] *)
  format_requests : string -> Stats.counter;
      (** wire name [requests.format.<frontend>]; pre-registered for every
          {!Lcm_frontend.Frontend.names} entry *)
  shard_routed : int -> Stats.counter;
      (** wire name [shard.routed.w<i>]: requests the router forwarded to
          worker [i] (cache hits are counted under [cache.hits_total],
          not here) *)
}

val create : Stats.t -> t

(** Bump [errors_total] and the per-code counter together (they are always
    incremented in lockstep). *)
val error : t -> Protocol.error_code -> unit
