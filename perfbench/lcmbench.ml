(* lcmbench: one workload of the lcmd serving benchmark.

     lcmbench --workload NAME --seed N --seconds S --trace 0|1
              --exe PATH/lcmopt.exe --work DIR

   Spawns `lcmopt serve --stdio` with default flags (plus the workload's
   own), measures set-up, runs a closed loop for S seconds, checks every
   response, and prints the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1, which adds an in-process traced replay)
   as the last line of standard output.  See README.md. *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Patch = Lcm_cfg.Patch
module Frontend = Lcm_frontend.Frontend
module Json = Lcm_server.Json

let now = Unix.gettimeofday

(* ---- arguments ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let exe = ref ""
let work = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-small | serve-large | fleet-cached | delta-journal");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics from a traced replay");
      ("--exe", Arg.Set_string exe, "PATH the lcmopt executable");
      ("--work", Arg.Set_string work, "DIR scratch directory (state dirs, sockets, spans)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lcmbench --workload NAME --seed N --seconds S --trace 0|1 --exe PATH --work DIR"

let t_start = Unix.gettimeofday ()

(* Progress on standard error, with the seconds since start. *)
let phase fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "lcmbench: %6.2fs %s\n%!" (Unix.gettimeofday () -. t_start) m) fmt

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("lcmbench: " ^ m); exit 2) fmt
let traced = !trace = 1

(* ---- small helpers ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank quantile *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (sorted xs) 0.5

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let read_all path = In_channel.with_open_bin path In_channel.input_all

let rec copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d
      else Out_channel.with_open_bin d (fun oc -> output_string oc (read_all s)))
    (Sys.readdir src)

let () =
  if !exe = "" || not (Sys.file_exists !exe) then die "server executable not found: %S" !exe;
  if !work = "" then die "--work DIR is required";
  rm_rf !work;
  mkdir_p !work

(* The server's temporary files (the router's worker sockets) stay in the
   work directory. *)
let server_env =
  let keep = Array.to_list (Unix.environment ()) |> List.filter (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv)) in
  Array.of_list (("TMPDIR=" ^ !work) :: keep)

let spawn args = Client.spawn ~exe:!exe ~args ~env:server_env

(* ---- server stats ---- *)

let counter st name =
  match Option.bind (Json.member "stats" st) (Json.member "counters") with
  | Some c -> Option.value (Option.bind (Json.member name c) Json.to_int_opt) ~default:0
  | None -> 0

let counters_with_prefix st prefix =
  match Option.bind (Json.member "stats" st) (Json.member "counters") with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> if String.starts_with ~prefix k then Json.to_int_opt v else None)
      kvs
  | _ -> []

let histo st name = Option.bind (Option.bind (Json.member "stats" st) (Json.member "histograms")) (Json.member name)

(* Mean of a histogram's samples between two snapshots. *)
let histo_mean st0 st1 name =
  let get st f = Option.bind (histo st name) (Json.member f) in
  let num st = Option.value (Option.bind (get st "sum_ms") Json.to_float_opt) ~default:0. in
  let cnt st = Option.value (Option.bind (get st "count") Json.to_int_opt) ~default:0 in
  let dc = cnt st1 - cnt st0 in
  if dc = 0 then 0. else (num st1 -. num st0) /. float_of_int dc

(* Median of a histogram's samples between two snapshots, interpolated
   inside the bucket that holds it. *)
let histo_p50 st0 st1 name =
  let buckets st =
    match Option.bind (histo st name) (Json.member "buckets") with
    | Some (Json.List bs) ->
      List.map
        (fun b ->
          ( Option.bind (Json.member "le_ms" b) Json.to_float_opt,
            Option.value (Option.bind (Json.member "count" b) Json.to_int_opt) ~default:0 ))
        bs
    | _ -> []
  in
  let b1 = buckets st1 and b0 = buckets st0 in
  let b0 = if List.length b0 = List.length b1 then b0 else List.map (fun (le, _) -> (le, 0)) b1 in
  let d = List.map2 (fun (le, c1) (_, c0) -> (le, c1 - c0)) b1 b0 in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 d in
  if total = 0 then 0.
  else begin
    let target = float_of_int total /. 2. in
    let rec go lo acc = function
      | [] -> lo
      | (le, c) :: rest ->
        let hi = Option.value le ~default:lo in
        let acc' = acc +. float_of_int c in
        if acc' >= target && c > 0 then lo +. ((hi -. lo) *. (target -. acc) /. float_of_int c)
        else go hi acc' rest
    in
    go 0. 0. d
  end

(* ---- results ---- *)

let failures = ref 0
let attempted = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      if !failures <= 20 then prerr_endline ("lcmbench: FAIL: " ^ m))
    fmt

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

(* A checkout without git metadata (an exported tree) reports "none". *)
let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short=12"; "HEAD" |] in
    let r = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when r <> "" -> r | _ -> "none"
  with _ -> "none"

let provenance ~window ~(t : Client.loop) ~extra =
  let samples = Array.length t.Client.samples in
  let lat = Array.map (fun (x : Client.sample) -> x.Client.lat_ms) t.Client.samples in
  Array.sort compare lat;
  Json.Obj
    ([
       ("workload", Json.String !workload);
       ("seed", Json.Int !seed);
       ("seconds", Json.Float !seconds);
       ("trace", Json.Int !trace);
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("git_rev", Json.String (git_rev ()));
       ("ocaml", Json.String Sys.ocaml_version);
       ("server_pool", Json.Int (Lcm_support.Pool.default_size ()));
       ("LCM_DOMAINS", match Sys.getenv_opt "LCM_DOMAINS" with Some v -> Json.String v | None -> Json.Null);
       ("window", Json.Int window);
       ("timed_samples", Json.Int samples);
       ( "latency_ms",
         Json.Obj (List.map (fun q -> (Printf.sprintf "q%g" q, Json.Float (quantile lat q))) [ 0.5; 0.75; 0.9; 0.95; 0.99; 1. ]) );
     ]
    @ extra)

let emit ~prov metrics =
  print_endline (Json.to_string (Json.Obj [ ("provenance", prov) ]));
  let metrics_json =
    Json.Obj
      (List.map
         (fun x ->
           let v = if Float.is_finite x.value then x.value else 0. in
           (x.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String x.unit_) ]))
         metrics)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failures = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failures);
            ("metrics", metrics_json);
          ]));
  exit (if !failures = 0 then 0 else 1)

(* ---- the timed phase, shared by every workload ---- *)

type timed = {
  loop : Client.loop;
  st0 : Json.t;  (* server stats before the timed phase *)
  st1 : Json.t;  (* and after *)
  rss_mb : float;
  steal : float;  (* share of the host's CPU time stolen during the phase *)
}

let min_samples = 200

(* Every timed sample, for looking at a run's latency over time. *)
let write_samples (loop : Client.loop) =
  let path = Filename.concat !work (Printf.sprintf "samples-%s-seed%d.tsv" !workload !seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "idx\tsent_s\tlatency_ms\tok\n";
      Array.iter
        (fun (x : Client.sample) ->
          Printf.fprintf oc "%d\t%.6f\t%.3f\t%b\n" x.Client.idx x.Client.sent_s x.Client.lat_ms x.Client.ok)
        loop.Client.samples)

let timed_phase s ~window ~request =
  let st0 = Client.stats s ~id:2_000_000 in
  let pids = Client.tree s.Client.pid in
  let cpu () = Client.cpu_ms pids in
  let loop = Client.closed_loop s ~window ~seconds:!seconds ~min_samples ~cpu ~request in
  let steal =
    let _, _, s0 = loop.Client.marks.(0) and _, _, s1 = loop.Client.marks.(Array.length loop.Client.marks - 1) in
    (s1 -. s0) /. (loop.Client.wall_s *. 1000. *. float_of_int (Domain.recommended_domain_count ()))
  in
  let st1 = Client.stats s ~id:2_000_001 in
  let rss_mb = Client.peak_rss_mb s in
  Client.stop s;
  write_samples loop;
  attempted := !attempted + Array.length loop.Client.samples;
  { loop; st0; st1; rss_mb; steal }

let ok_count t = Array.fold_left (fun a (x : Client.sample) -> if x.Client.ok then a + 1 else a) 0 t.loop.Client.samples

let latencies ?(keep = fun _ -> true) t =
  Array.to_list t.loop.Client.samples
  |> List.filter keep
  |> List.map (fun (x : Client.sample) -> x.Client.lat_ms)
  |> sorted

(* The timed phase cut at its marks into slices of at least [slice_min]
   responses each (by completion time).  A short burst of host noise then
   spoils one slice, not the run: the wall-clock metrics are medians over
   slices. *)
type slice = { s_dur : float; s_ok : int; s_lat : float array; s_cpu : float; s_steal : float }

let slice_min = 20

let slices t =
  let marks = t.loop.Client.marks in
  let done_at (x : Client.sample) = x.Client.sent_s +. (x.Client.lat_ms /. 1000.) in
  let in_range lo hi =
    Array.to_list t.loop.Client.samples
    |> List.filter (fun x -> let c = done_at x in c >= lo && c < hi)
  in
  let last = Array.length marks - 1 in
  let make i j =
    let ti, ci, si = marks.(i) and tj, cj, sj = marks.(j) in
    let xs = in_range ti (if j = last then infinity else tj) in
    {
      s_dur = tj -. ti;
      s_ok = List.length (List.filter (fun (x : Client.sample) -> x.Client.ok) xs);
      s_lat = sorted (List.map (fun (x : Client.sample) -> x.Client.lat_ms) xs);
      s_cpu = cj -. ci;
      s_steal = (sj -. si) /. ((tj -. ti) *. 1000. *. float_of_int (Domain.recommended_domain_count ()));
    }
  in
  let count i j = Array.length (make i j).s_lat in
  (* extend a slice mark by mark until it holds [slice_min] responses; a
     short remainder joins the last slice *)
  let rec go i j acc =
    if j = last then
      match acc with
      | (i', _) :: rest when count i last < slice_min -> List.rev ((i', last) :: rest)
      | _ -> List.rev ((i, last) :: acc)
    else if count i j >= slice_min then go j (j + 1) ((i, j) :: acc)
    else go i (j + 1) acc
  in
  List.map (fun (i, j) -> make i j) (go 0 1 [])

(* On a virtual machine the hypervisor can steal a share of the host's CPU
   time for minutes at a time; every wall-clock figure then slows by far
   more than any change under test could move it.  Slices during which
   more than [Client.steal_max] of the CPU time was stolen are left out of
   the medians.  When no slice was quiet, the least-stolen third stands
   in. *)
let quiet_slices t =
  let sl = slices t in
  match List.filter (fun s -> s.s_steal <= Client.steal_max) sl with
  | [] ->
    let by_steal = List.sort (fun a b -> compare a.s_steal b.s_steal) sl in
    List.filteri (fun i _ -> i < max 1 (List.length sl / 3)) by_steal
  | quiet -> quiet

(* p95 over the samples of the quiet slices, pooled; over every sample
   when those leave fewer than ten beyond the p95. *)
let quiet_p95 t =
  let pooled = Array.concat (List.map (fun s -> s.s_lat) (quiet_slices t)) in
  let pooled = if Array.length pooled >= 200 then pooled else Array.concat (List.map (fun s -> s.s_lat) (slices t)) in
  Array.sort compare pooled;
  quantile pooled 0.95

let slices_json t =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("responses", Json.Int (Array.length s.s_lat));
             ("p50_ms", Json.Float (quantile s.s_lat 0.5));
             ("cpu_ms_per_ok", Json.Float (s.s_cpu /. float_of_int (max 1 s.s_ok)));
             ("steal", Json.Float s.s_steal);
           ])
       (slices t))

(* One set-up: its wall time, and the share of the host's CPU time the
   hypervisor stole during it. *)
let setup_sample t0 st0 =
  let dur = now () -. t0 in
  (dur, (Client.steal_ms () -. st0) /. (dur *. 1000. *. float_of_int (Domain.recommended_domain_count ())))

(* [setup_s]: the median over the set-ups during which at most
   [Client.steal_max] of the CPU time was stolen, as for the timed slices;
   over the least-stolen third when fewer were quiet. *)
let setup_median setups =
  let keep = max 2 ((List.length setups + 2) / 3) in
  let quiet = List.filter (fun (_, st) -> st <= Client.steal_max) setups in
  let kept =
    if List.length quiet >= keep then quiet
    else List.filteri (fun i _ -> i < keep) (List.stable_sort (fun (_, a) (_, b) -> compare a b) setups)
  in
  median (List.map fst kept)

let setups_json setups =
  Json.List (List.rev_map (fun (d, st) -> Json.List [ Json.Float d; Json.Float st ]) setups)

let end_to_end ~setups ~t ~checked ~q =
  let ok = ok_count t in
  let okf = float_of_int (max 1 ok) in
  let d name = float_of_int (counter t.st1 name - counter t.st0 name) in
  let sl = quiet_slices t in
  let med f = median (List.map f sl) in
  [
    m "setup_s" "s" (setup_median setups);
    m "ok_frac" "frac" (float_of_int (checked - !failures) /. float_of_int (max 1 !attempted));
    m "cpu_ms_per_ok" "ms" (med (fun s -> s.s_cpu /. float_of_int (max 1 s.s_ok)));
    m "alloc_w_per_ok" "words" (d "gc.alloc_words" /. okf);
    m "peak_rss_mb" "MB" t.rss_mb;
    m "dyn_evals_ratio" "ratio" (Check.dyn_evals_ratio q);
    m "static_instrs_ratio" "ratio" (Check.static_instrs_ratio q);
    m "temp_lifetime" "blocks" (Check.temp_lifetime q);
  ]

(* Server-side per-layer metrics from the two stats snapshots, and the
   client-side latency split by cache outcome. *)
let server_layers ~t ~requests ~deltas =
  let d name = float_of_int (counter t.st1 name - counter t.st0 name) in
  let ok = float_of_int (max 1 (ok_count t)) in
  let per n x = if n = 0. then 0. else x /. n in
  let routed =
    List.map2 ( - ) (counters_with_prefix t.st1 "shard.routed.w")
      (let c0 = counters_with_prefix t.st0 "shard.routed.w" in
       if c0 = [] then List.map (fun _ -> 0) (counters_with_prefix t.st1 "shard.routed.w") else c0)
  in
  let balance =
    match routed with
    | [] -> 1.
    | _ ->
      let mx = List.fold_left max 0 routed and mn = List.fold_left min max_int routed in
      if mn = 0 then float_of_int mx else float_of_int mx /. float_of_int mn
  in
  let is_hit (x : Client.sample) = Client.contains x.Client.frame "\"cache\":\"hit\"" in
  let hits = latencies ~keep:is_hit t and misses = latencies ~keep:(fun x -> not (is_hit x)) t in
  let hits_n = d "cache.hits_total" and misses_n = d "cache.misses_total" in
  [
    m "client.p50_ms" "ms" (median (List.map (fun s -> quantile s.s_lat 0.5) (quiet_slices t)));
    m "client.ok_per_s" "1/s" (median (List.map (fun s -> float_of_int s.s_ok /. s.s_dur) (quiet_slices t)));
    m "client.p95_ms" "ms" (quiet_p95 t);
    m "daemon.queue_ms" "ms" (histo_p50 t.st0 t.st1 "queue_delay");
    m "daemon.batch_size" "count" (histo_mean t.st0 t.st1 "batch_size");
    m "arena.miss_ratio" "ratio" (per (d "arena.checkouts_total") (d "arena.misses_total"));
    m "gc.minor_per_ok" "count" (d "gc.minor_collections" /. ok);
    m "gc.major_per_ok" "count" (d "gc.major_collections" /. ok);
    m "router.memo_hit_ratio" "ratio" (per requests (d "shard.digest_memo_hits_total"));
    m "cache.hit_ratio" "ratio" (per (hits_n +. misses_n) hits_n);
    m "cache.evictions_per_1k" "count" (per requests (1000. *. d "cache.evictions_total"));
    m "shard.balance" "ratio" balance;
    m "router.hit_p50_ms" "ms" (quantile hits 0.5);
    m "router.miss_p50_ms" "ms" (quantile misses 0.5);
    m "delta.incremental_ratio" "ratio" (per deltas (d "delta.incremental_total"));
    m "journal.compactions_per_1k" "count" (per deltas (1000. *. d "journal.compactions_total"));
  ]

(* Per-layer metrics of the traced replay. *)
let replay_layers (r : Replay.t) ~client_p50 ~recover_ms ~digest_us =
  let us = Replay.mean_us r and w = Replay.mean_w r in
  let n = float_of_int (max 1 r.Replay.requests) in
  let fmt name =
    let parse = "frontend." ^ name ^ ".parse" in
    let bytes = match Hashtbl.find_opt r.Replay.fmt_bytes name with Some b -> float_of_int !b | None -> 0. in
    let secs = Replay.self_s r parse in
    [
      m ("frontend." ^ name ^ ".parse_us") "us" (us parse);
      m ("frontend." ^ name ^ ".parse_w") "words" (w parse);
      m ("frontend." ^ name ^ ".parse_mb_s") "MB/s" (if secs = 0. then 0. else bytes /. 1e6 /. secs);
    ]
  in
  let analyze = us "lcm.analyze" in
  let exec_us = r.Replay.exec_s *. 1e6 /. n in
  let exec_p50 = median r.Replay.exec_ms in
  let per_req x = float_of_int x /. n in
  [
    m "daemon.wire_ms" "ms" (client_p50 -. exec_p50);
    m "frame.feed_us" "us" (us "frame.feed");
    m "frame.bytes_per_req" "bytes" (float_of_int r.Replay.frame_bytes /. n);
    m "protocol.decode_us" "us" (us "protocol.decode");
    m "protocol.decode_w" "words" (w "protocol.decode");
    m "protocol.encode_us" "us" (us "protocol.encode");
    m "protocol.encode_w" "words" (w "protocol.encode");
  ]
  @ fmt "cfg" @ fmt "bril" @ fmt "miniimp"
  @ [
      m "cfg.pool_us" "us" (us "cfg.pool");
      m "cfg.print_us" "us" (us "cfg.print");
      m "cfg.print_w" "words" (w "cfg.print");
      m "dataflow.local_us" "us" (us "dataflow.local");
      m "dataflow.avail_us" "us" (us "dataflow.avail");
      m "dataflow.antic_us" "us" (us "dataflow.antic");
      m "dataflow.visits" "count" (if Replay.count r "dataflow.avail" = 0 then 0. else per_req r.Replay.visits);
      m "dataflow.sweeps" "count" (if Replay.count r "dataflow.avail" = 0 then 0. else per_req r.Replay.sweeps);
      m "lcm.analyze_us" "us" analyze;
      m "lcm.analyze_w" "words" (w "lcm.analyze");
      m "lcm.edge_us" "us"
        (if analyze = 0. then 0.
         else analyze -. us "dataflow.local" -. us "dataflow.avail" -. us "dataflow.antic");
      m "transform.apply_us" "us" (us "transform.apply");
      m "transform.apply_w" "words" (w "transform.apply");
      m "transform.edits" "count" (per_req r.Replay.edits);
      m "metrics.static_us" "us" (us "metrics.static");
      m "engine.execute_us" "us" exec_us;
      m "engine.execute_w" "words" (r.Replay.exec_w /. n);
      m "engine.coverage" "ratio" (Replay.coverage r);
      m "trace.overhead" "ratio" (Replay.overhead r);
      m "router.digest_us" "us" digest_us;
      m "patch.apply_us" "us" (us "patch.apply");
      m "lcm.incr_us" "us" (us "lcm.incr");
      m "lcm.incr_visit_frac" "ratio"
        (if r.Replay.full_visits = 0 then 0.
         else float_of_int r.Replay.incr_visits /. float_of_int r.Replay.full_visits);
      m "lcm.incr_region_frac" "ratio"
        (if r.Replay.blocks = 0 then 0. else float_of_int r.Replay.region /. float_of_int r.Replay.blocks);
      m "journal.append_us" "us" (us "journal.append");
      m "journal.recover_ms" "ms" recover_ms;
    ]

(* Coverage short of 0.95 means Engine.execute does work outside every
   timed layer call; above 1.05, the traced calls cost more than the
   engine's own (the spans, or a layer the replay calls that the engine
   skips).  Either is named on standard error. *)
let report_coverage (r : Replay.t) =
  let coverage = Replay.coverage r in
  let gap_us = (1. -. coverage) *. r.Replay.exec_s *. 1e6 /. float_of_int (max 1 r.Replay.requests) in
  if coverage < 0.95 then
    Printf.eprintf
      "lcmbench: engine.coverage %.3f < 0.95 on %s: %.1f us/request of Engine.execute lies outside \
       every timed layer call (engine bookkeeping: Stats counters, arena checkout, Pass.Pipeline, \
       Registry lookup)\n%!"
      coverage !workload gap_us
  else if coverage > 1.05 then
    Printf.eprintf
      "lcmbench: engine.coverage %.3f > 1.05 on %s: the timed layer calls take %.1f us/request more \
       than Engine.execute (span recording: clock and Gc.allocated_bytes reads around every call; \
       trace.overhead %.3f)\n%!"
      coverage !workload (-.gap_us) (Replay.overhead r)

(* The router's canonicalising digest (parse, print, MD5) of each frame's
   program; MiniImp is keyed on its raw text. *)
let digest_us (progs : Gen.prog array) =
  let want = max 1 (2000 / Array.length progs) in
  let t0 = now () in
  (* whole passes, up to [want] of them or about a second *)
  let reps = ref 0 in
  while !reps < want && (!reps = 0 || now () -. t0 < 1.) do
    incr reps;
    Array.iter
      (fun (p : Gen.prog) ->
        let fe = Option.get (Frontend.find p.Gen.fmt) in
        let content =
          if fe.Frontend.route_canonical then
            match Frontend.parse_one fe p.Gen.text with Ok g -> Cfg.to_string g | Error _ -> p.Gen.text
          else p.Gen.text
        in
        ignore (Digest.string content))
      progs
  done;
  (now () -. t0) *. 1e6 /. float_of_int (!reps * Array.length progs)

let spans_path () = Filename.concat !work (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)

(* ---- run workloads: serve-small, serve-large, fleet-cached ---- *)


(* Set-ups per run, reported through [setup_median].  One set-up of
   serve-small lasts ~0.15 s and, on a shared virtual machine, varies by up
   to +-30% from one to the next, so the short set-ups are repeated most: a
   run spends 2-11 s on them.  A traced run sets up once. *)
let setup_reps n = if traced then 1 else n

let run_workload ~(distinct : Gen.prog array) ~pick ~window ~args ~replay_frames ~setups:n =
  let setup_reps = setup_reps n in
  (* Set-up: spawn, then answer every distinct program once, one at a
     time.  Repeated; the last server goes on to the timed phase. *)
  let setups = ref [] and server = ref None and cold = ref [||] in
  for rep = 1 to setup_reps do
    let st0 = Client.steal_ms () and t0 = now () in
    let s = spawn args in
    let frames = Array.mapi (fun k (p : Gen.prog) -> Client.call s ~id:(1_000_000 + k) p.Gen.frame_tail) distinct in
    setups := setup_sample t0 st0 :: !setups;
    if rep < setup_reps then Client.stop s
    else begin
      server := Some s;
      cold := frames
    end
  done;
  let s = Option.get !server in
  phase "set-up done (median %.3f s)" (setup_median !setups);
  attempted := !attempted + Array.length !cold;
  let prog_of = Hashtbl.create 4096 in
  let t =
    timed_phase s ~window ~request:(fun i ->
        let k, (p : Gen.prog) = pick () in
        Hashtbl.replace prog_of i k;
        "{\"id\":" ^ string_of_int i ^ p.Gen.frame_tail)
  in
  phase "timed phase done";
  (* The output check. *)
  let expected = Array.make (Array.length distinct) None in
  let expect k =
    match expected.(k) with
    | Some e -> e
    | None ->
      let g = Check.parse_exn distinct.(k).Gen.fmt distinct.(k).Gen.text in
      let e = (g, Check.expected g) in
      expected.(k) <- Some e;
      e
  in
  let checked = ref 0 in
  let check_frame k frame =
    incr checked;
    if not (Client.is_ok frame) then fail "request for program %d answered %s" k (String.sub frame 0 (min 200 (String.length frame)))
    else
      match Check.served_program frame with
      | Some p when String.equal p (snd (expect k)) -> ()
      | Some _ -> fail "program %d: served program differs from the in-process transformation" k
      | None -> fail "program %d: ok response without a program" k
  in
  Array.iteri check_frame !cold;
  Array.iter
    (fun (x : Client.sample) -> check_frame (Hashtbl.find prog_of x.Client.idx) x.Client.frame)
    t.loop.Client.samples;
  phase "byte check done";
  let q = Check.quality () in
  Array.iteri
    (fun k e ->
      match e with
      | Some (g, text) ->
        if not (Check.interp_check q ~seed:!seed ~original:g ~served:(Cfg_text.parse text)) then
          fail "program %d: served program behaves differently under the interpreter" k
      | None -> ())
    expected;
  let prov = provenance ~window ~t:t.loop ~extra:[
      ("slices", slices_json t);
      ("host_steal_frac", Json.Float t.steal);
      ("quiet_slices", Json.Int (List.length (quiet_slices t)));
      ("setup_reps", Json.Int setup_reps);
      ("setups_s_steal", setups_json !setups);
      ("distinct_programs", Json.Int (Array.length distinct));
      ("interp_programs", Json.Int q.Check.programs);
    ] in
  if not traced then emit ~prov (end_to_end ~setups:!setups ~t ~checked:!checked ~q)
  else begin
    let r = Replay.replay_runs ~budget_s:(!seconds /. 2.) replay_frames in
    Replay.write_spans r (spans_path ());
    report_coverage r;
    let lat = latencies t in
    let requests = float_of_int (Array.length t.loop.Client.samples) in
    emit ~prov
      (replay_layers r ~client_p50:(quantile lat 0.5) ~recover_ms:0. ~digest_us:(digest_us distinct)
      @ server_layers ~t ~requests ~deltas:0.)
  end

let round_robin (progs : Gen.prog array) =
  let i = ref 0 in
  fun () ->
    let k = !i mod Array.length progs in
    incr i;
    (k, progs.(k))

let frames_of (progs : Gen.prog array) = Array.mapi (fun i (p : Gen.prog) -> "{\"id\":" ^ string_of_int i ^ p.Gen.frame_tail) progs

let serve_small () =
  let progs = Gen.serve_small !seed in
  run_workload ~distinct:progs ~pick:(round_robin progs) ~window:2 ~args:[] ~replay_frames:(frames_of progs)
    ~setups:15

let serve_large () =
  let progs = Gen.serve_large !seed in
  run_workload ~distinct:progs ~pick:(round_robin progs) ~window:1 ~args:[] ~replay_frames:(frames_of progs)
    ~setups:9

let fleet_cached () =
  let f = Gen.fleet_cached !seed in
  let replay = let next = Gen.fleet_stream f !seed in Array.init 256 (fun _ -> snd (next ())) in
  run_workload ~distinct:f.Gen.originals ~pick:(Gen.fleet_stream f !seed) ~window:2
    ~args:[ "--shards"; "2" ] ~replay_frames:(frames_of replay) ~setups:5

(* ---- delta-journal ---- *)

let delta_journal () =
  let setup_reps = setup_reps 3 in
  let bases = Gen.bases !seed in
  let n = Array.length bases in
  let prebuilt = Filename.concat !work "prebuilt" in
  let call_delta s ~id ~names ~handle ~index =
    let d = Gen.delta_edit bases !seed ~handle ~index in
    Client.call s ~id (Gen.delta_frame_tail ~handle_name:names.(handle) d)
  in
  (* Untimed: retain every base and give each handle its uncompacted
     patch log. *)
  let s = spawn [ "--state-dir"; prebuilt ] in
  let names =
    Array.mapi
      (fun h (b : Gen.base) ->
        let j = Json.parse (Client.call s ~id:(3_000_000 + h) (Gen.retain_frame_tail b)) in
        (match Json.member "retained_program" j with
        | Some (Json.String p) when String.equal p b.Gen.b_text -> ()
        | _ -> die "retain of base %d did not echo its canonical program" h);
        match Option.bind (Json.member "handle" j) Json.to_string_opt with
        | Some name -> name
        | None -> die "retain of base %d returned no handle" h)
      bases
  in
  for index = 0 to Gen.prebuilt_patches - 1 do
    for handle = 0 to n - 1 do
      let f = call_delta s ~id:(4_000_000 + (index * n) + handle) ~names ~handle ~index in
      if not (Client.is_ok f) then die "pre-built delta failed: %s" f
    done
  done;
  Client.stop s;
  phase "state dir pre-built";
  (* Set-up: restart on a fresh copy of the state dir (journal recovery),
     then one delta per handle. *)
  let setups = ref [] and server = ref None and setup_frames = ref [||] in
  for rep = 1 to setup_reps do
    let dir = Filename.concat !work (Printf.sprintf "state-%d" rep) in
    copy_dir prebuilt dir;
    let st0 = Client.steal_ms () and t0 = now () in
    let s = spawn [ "--state-dir"; dir ] in
    let frames =
      Array.init n (fun handle -> call_delta s ~id:(5_000_000 + handle) ~names ~handle ~index:Gen.prebuilt_patches)
    in
    setups := setup_sample t0 st0 :: !setups;
    if rep < setup_reps then Client.stop s
    else begin
      server := Some s;
      setup_frames := frames
    end
  done;
  attempted := !attempted + n;
  phase "set-up done (median %.3f s)" (setup_median !setups);
  let first_timed = Gen.prebuilt_patches + 1 in
  let t =
    timed_phase (Option.get !server) ~window:1 ~request:(fun i ->
        let handle = i mod n in
        let d = Gen.delta_edit bases !seed ~handle ~index:(first_timed + (i / n)) in
        "{\"id\":" ^ string_of_int i ^ Gen.delta_frame_tail ~handle_name:names.(handle) d)
  in
  phase "timed phase done";
  (* The output check: an in-process mirror of every handle takes the
     same edits; each served program must equal the transformation of the
     mirror, and behave like it. *)
  let mirrors = Array.map (fun (b : Gen.base) -> Cfg_text.parse b.Gen.b_text) bases in
  let apply handle index =
    let d = Gen.delta_edit bases !seed ~handle ~index in
    ignore (Patch.apply mirrors.(handle) [ Patch.Set_instrs (d.Gen.d_block, List.map Cfg_text.parse_instr_line d.Gen.d_instrs) ])
  in
  for index = 0 to Gen.prebuilt_patches - 1 do
    for handle = 0 to n - 1 do apply handle index done
  done;
  (* The quality figures cover the set-up deltas and the first
     [quality_deltas] timed ones, so they do not depend on how many
     deltas the timed phase completed. *)
  let q = Check.quality () and q_rest = Check.quality () in
  let quality_deltas = min_samples - n in
  let checked = ref 0 in
  let check handle index frame =
    apply handle index;
    incr checked;
    if not (Client.is_ok frame) then fail "delta %d of handle %d answered %s" index handle (String.sub frame 0 (min 200 (String.length frame)))
    else begin
      let g = mirrors.(handle) in
      let exp = Check.expected g in
      match Check.served_program frame with
      | Some p when String.equal p exp ->
        let q = if index < first_timed + (quality_deltas / n) then q else q_rest in
        if not (Check.interp_check q ~seed:!seed ~original:g ~served:(Cfg_text.parse p)) then
          fail "delta %d of handle %d: served program behaves differently under the interpreter" index handle
      | Some _ -> fail "delta %d of handle %d: served program differs from the in-process transformation" index handle
      | None -> fail "delta %d of handle %d: ok response without a program" index handle
    end
  in
  Array.iteri (fun handle f -> check handle Gen.prebuilt_patches f) !setup_frames;
  Array.iter
    (fun (x : Client.sample) ->
      let i = x.Client.idx in
      check (i mod n) (first_timed + (i / n)) x.Client.frame)
    t.loop.Client.samples;
  let prov = provenance ~window:1 ~t:t.loop ~extra:[
      ("slices", slices_json t);
      ("host_steal_frac", Json.Float t.steal);
      ("quiet_slices", Json.Int (List.length (quiet_slices t)));
      ("setup_reps", Json.Int setup_reps);
      ("setups_s_steal", setups_json !setups);
      ("handles", Json.Int n);
      ("prebuilt_patches", Json.Int Gen.prebuilt_patches);
      ("interp_programs", Json.Int (q.Check.programs + q_rest.Check.programs));
      ("quality_programs", Json.Int q.Check.programs);
    ] in
  if not traced then emit ~prov (end_to_end ~setups:!setups ~t ~checked:!checked ~q)
  else begin
    let recover =
      median
        (List.init 3 (fun k ->
             let dir = Filename.concat !work (Printf.sprintf "recover-%d" k) in
             copy_dir prebuilt dir;
             Replay.recover_ms ~dir))
    in
    let r = Replay.replay_deltas ~budget_s:(!seconds /. 2.) ~dir:(Filename.concat !work "replay") ~seed:!seed bases in
    Replay.write_spans r (spans_path ());
    let lat = latencies t in
    let requests = float_of_int (Array.length t.loop.Client.samples) in
    emit ~prov
      (replay_layers r ~client_p50:(quantile lat 0.5) ~recover_ms:recover ~digest_us:0.
      @ server_layers ~t ~requests ~deltas:requests)
  end

let () =
  match !workload with
  | "serve-small" -> serve_small ()
  | "serve-large" -> serve_large ()
  | "fleet-cached" -> fleet_cached ()
  | "delta-journal" -> delta_journal ()
  | w -> die "unknown workload %S (serve-small, serve-large, fleet-cached, delta-journal)" w
