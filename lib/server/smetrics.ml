type t = {
  frames_total : Stats.counter;
  requests_total : Stats.counter;
  responses_ok : Stats.counter;
  errors_total : Stats.counter;
  rejected_overloaded : Stats.counter;
  rejected_oversized : Stats.counter;
  batches_total : Stats.counter;
  dispatch_failures : Stats.counter;
  accept_failures : Stats.counter;
  connections_total : Stats.counter;
  tier_fallbacks : Stats.counter;
  arena_checkouts : Stats.counter;
  arena_misses : Stats.counter;
  alloc_words : Stats.counter;
  degraded_total : Stats.counter;
  degraded_identity : Stats.counter;
  validated_total : Stats.counter;
  restarts_total : Stats.counter;
  restarts_signal : Stats.counter;
  restarts_exit : Stats.counter;
  deltas_total : Stats.counter;
  delta_incremental : Stats.counter;
  delta_full : Stats.counter;
  handles_live : Stats.counter;
  handles_evicted : Stats.counter;
  cache_hits : Stats.counter;
  cache_misses : Stats.counter;
  cache_evictions : Stats.counter;
  digest_memo_hits : Stats.counter;
  shard_retries : Stats.counter;
  shard_restarts : Stats.counter;
  shard_replays : Stats.counter;
  shard_poisoned : Stats.counter;
  shard_held : Stats.counter;
  cache_corrupt : Stats.counter;
  journal_appends : Stats.counter;
  journal_append_failures : Stats.counter;
  journal_compactions : Stats.counter;
  journal_recovered : Stats.counter;
  journal_replayed_patches : Stats.counter;
  journal_truncated : Stats.counter;
  journal_quarantined : Stats.counter;
  queue_delay : Stats.histo;
  run : Stats.histo;
  total : Stats.histo;
  batch_size : Stats.histo;
  error_by_code : Protocol.error_code -> Stats.counter;
  format_requests : string -> Stats.counter;
  shard_routed : int -> Stats.counter;
}

let all_codes =
  [
    Protocol.Bad_request;
    Protocol.Parse_error;
    Protocol.Oversized;
    Protocol.Overloaded;
    Protocol.Deadline_exceeded;
    Protocol.Fuel_exhausted;
    Protocol.Unknown_handle;
    Protocol.Poisoned_request;
    Protocol.Shutting_down;
    Protocol.Unsupported_format;
    Protocol.Internal;
  ]

let create stats =
  let c name = Stats.counter stats name in
  let h name = Stats.histo stats name in
  let by_code =
    List.map (fun code -> (code, c ("errors." ^ Protocol.error_code_to_string code))) all_codes
  in
  (* Registered frontends get their counter eagerly so a stats snapshot
     shows every format at zero, not only the ones already requested. *)
  let formats = List.map (fun f -> (f, c ("requests.format." ^ f))) Lcm_frontend.Frontend.names in
  {
    frames_total = c "frames_total";
    requests_total = c "requests_total";
    responses_ok = c "responses_ok";
    errors_total = c "errors_total";
    rejected_overloaded = c "rejected_overloaded";
    rejected_oversized = c "rejected_oversized";
    batches_total = c "batches_total";
    dispatch_failures = c "dispatch_failures_total";
    accept_failures = c "accept_failures_total";
    connections_total = c "connections_total";
    tier_fallbacks = c "engine.tier_fallbacks";
    arena_checkouts = c "arena.checkouts_total";
    arena_misses = c "arena.misses_total";
    alloc_words = c "engine.alloc_words_total";
    degraded_total = c "degraded_total";
    degraded_identity = c "degraded.identity";
    validated_total = c "validated_total";
    restarts_total = c "supervisor.restarts_total";
    restarts_signal = c "supervisor.restarts.signal";
    restarts_exit = c "supervisor.restarts.exit";
    deltas_total = c "deltas_total";
    delta_incremental = c "delta.incremental_total";
    delta_full = c "delta.full_total";
    handles_live = c "handles.registered_total";
    handles_evicted = c "handles.evicted_total";
    cache_hits = c "cache.hits_total";
    cache_misses = c "cache.misses_total";
    cache_evictions = c "cache.evictions_total";
    digest_memo_hits = c "shard.digest_memo_hits_total";
    shard_retries = c "shard.retries_total";
    shard_restarts = c "shard.worker_restarts_total";
    shard_replays = c "shard.replays_total";
    shard_poisoned = c "shard.poisoned_total";
    shard_held = c "shard.held_frames_total";
    cache_corrupt = c "shard.cache_corrupt_total";
    journal_appends = c "journal.appends_total";
    journal_append_failures = c "journal.append_failures_total";
    journal_compactions = c "journal.compactions_total";
    journal_recovered = c "journal.recovered_handles_total";
    journal_replayed_patches = c "journal.replayed_patches_total";
    journal_truncated = c "journal.truncated_tails_total";
    journal_quarantined = c "journal.quarantined_total";
    queue_delay = h "queue_delay";
    run = h "run";
    total = h "total";
    batch_size = h "batch_size";
    error_by_code = (fun code -> List.assoc code by_code);
    format_requests =
      (fun fmt ->
        match List.assoc_opt fmt formats with Some h -> h | None -> c ("requests.format." ^ fmt));
    shard_routed =
      (* Worker counts are small and fixed at startup; memoize per index
         so the hot path holds a handle, not a name. *)
      (let memo = Hashtbl.create 8 in
       fun i ->
         match Hashtbl.find_opt memo i with
         | Some h -> h
         | None ->
           let h = c (Printf.sprintf "shard.routed.w%d" i) in
           Hashtbl.replace memo i h;
           h);
  }

let error m code =
  Stats.bump m.errors_total;
  Stats.bump (m.error_by_code code)
