(* The traced run: a workload's requests replayed in-process, one public
   call per layer, in the order Engine.execute makes them.  The spans are
   recorded here, around the calls; nothing inside the library is
   instrumented.  Each request is also run through the untraced
   Engine.execute, which gives the coverage of the spans and the cost of
   recording them.  The two alternate which goes first, so neither always
   finds the caches warmed by the other; probes that repeat a layer's work
   (the dataflow analyses, a from-scratch solve) run after both, so their
   allocations and cache traffic cannot slow the spans counted in scope. *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Patch = Lcm_cfg.Patch
module Frontend = Lcm_frontend.Frontend
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform
module Metrics = Lcm_eval.Metrics
module Pool = Lcm_support.Pool
module Frame = Lcm_server.Frame
module Protocol = Lcm_server.Protocol
module Engine = Lcm_server.Engine
module Stats = Lcm_server.Stats
module Hjournal = Lcm_server.Hjournal
module Json = Lcm_server.Json

let now = Unix.gettimeofday
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* ---- spans ---- *)

type span = {
  name : string;
  req : int;
  id : int;
  parent : int;  (* -1 for a request's root *)
  t0 : float;
  t1 : float;
  w : float;  (* words allocated inside *)
}

(* Spans kept for the trace file; the per-name totals cover every span. *)
let max_kept = 50_000

type t = {
  mutable kept : span list;
  mutable next_id : int;
  mutable stack : (int * float ref) list;  (* open spans: id, time covered by children *)
  mutable req : int;
  mutable record : bool;  (* false during the warm-up pass *)
  totals : (string, int ref * float ref * float ref) Hashtbl.t;  (* count, self s, words *)
  mutable scope_s : float;  (* in-scope span time of the current request *)
  (* per recorded request *)
  mutable requests : int;
  mutable exec_s : float;
  mutable exec_w : float;
  mutable exec_ms : float list;
  mutable ratios : (float * float) list;  (* per request: in-scope / untraced, traced / untraced *)
  mutable frame_bytes : int;
  fmt_bytes : (string, int ref) Hashtbl.t;
  mutable visits : int;
  mutable sweeps : int;
  mutable edits : int;
  mutable incr : int;
  mutable incr_visits : int;
  mutable full_visits : int;
  mutable region : int;
  mutable blocks : int;
}

let create () =
  {
    kept = [];
    next_id = 0;
    stack = [];
    req = 0;
    record = false;
    totals = Hashtbl.create 32;
    scope_s = 0.;
    requests = 0;
    exec_s = 0.;
    exec_w = 0.;
    exec_ms = [];
    ratios = [];
    frame_bytes = 0;
    fmt_bytes = Hashtbl.create 4;
    visits = 0;
    sweeps = 0;
    edits = 0;
    incr = 0;
    incr_visits = 0;
    full_visits = 0;
    region = 0;
    blocks = 0;
  }

(* [span ~scope r name f]: time [f] as a child of the open span.  [scope]
   marks the spans that partition Engine.execute's work; the dataflow
   probes repeat work lcm.analyze does inside, so they attribute its time
   but are not in scope. *)
let span ?(scope = false) r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent, parent_cover = match r.stack with (p, c) :: _ -> (p, Some c) | [] -> (-1, None) in
  let cover = ref 0. in
  r.stack <- (id, cover) :: r.stack;
  let w0 = words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let w = words () -. w0 in
  r.stack <- List.tl r.stack;
  let dur = t1 -. t0 in
  Option.iter (fun c -> c := !c +. dur) parent_cover;
  if scope then r.scope_s <- r.scope_s +. dur;
  if r.record then begin
    let c, s, ww =
      match Hashtbl.find_opt r.totals name with
      | Some x -> x
      | None ->
        let x = (ref 0, ref 0., ref 0.) in
        Hashtbl.replace r.totals name x;
        x
    in
    incr c;
    s := !s +. (dur -. !cover);
    ww := !ww +. w;
    if id < max_kept then r.kept <- { name; req = r.req; id; parent; t0; t1; w } :: r.kept
  end;
  v

let count r name = match Hashtbl.find_opt r.totals name with Some (c, _, _) -> !c | None -> 0
let mean_us r name =
  match Hashtbl.find_opt r.totals name with
  | Some (c, s, _) when !c > 0 -> !s *. 1e6 /. float_of_int !c
  | _ -> 0.

let mean_w r name =
  match Hashtbl.find_opt r.totals name with
  | Some (c, _, w) when !c > 0 -> !w /. float_of_int !c
  | _ -> 0.

(* Coverage (in-scope span time / untraced Engine.execute time) and the
   traced / untraced time, each the median of the per-request ratios: one
   request that a GC slice or a burst of host noise slowed on one side
   cannot move them. *)
let median_of f r =
  match List.sort compare (List.map f r.ratios) with
  | [] -> 0.
  | xs -> List.nth xs ((List.length xs - 1) / 2)

let coverage = median_of fst
let overhead r = median_of snd r -. 1.

let self_s r name = match Hashtbl.find_opt r.totals name with Some (_, s, _) -> !s | None -> 0.

let write_spans r path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"req\":%d,\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"words\":%.0f}\n"
        s.name s.req s.id s.parent (s.t0 *. 1e6) (s.t1 *. 1e6) s.w)
    (List.rev r.kept);
  close_out oc

(* ---- one request ---- *)

let decode r frame =
  let reader = Frame.create ~max_frame:(64 lsl 20) in
  let b = Bytes.of_string (frame ^ "\n") in
  let events = span r "frame.feed" (fun () -> Frame.feed reader b (Bytes.length b)) in
  let text = match events with [ Frame.Frame t ] -> t | _ -> failwith "replay: framing" in
  match span r "protocol.decode" (fun () -> Protocol.parse_request text) with
  | Ok req -> req
  | Error (_, _, _, m) -> failwith ("replay: bad request: " ^ m)

let timing = Some { Protocol.queue_ms = 0.; run_ms = 0. }

(* Run [body] as request [i] beside the untraced engine on the same
   decoded request, in the order [traced_first] says, then the probes
   [body] returns. *)
let request r ~engine ~i ~frame ~traced_first body =
  r.req <- i;
  r.scope_s <- 0.;
  let traced () =
    span r "request" (fun () ->
        let req = decode r frame in
        let t0 = now () in
        let probe = body req in
        (probe, now () -. t0))
  in
  let untraced () =
    let req = match Protocol.parse_request frame with Ok req -> req | Error _ -> failwith "replay: bad request" in
    let w0 = words () in
    let t0 = now () in
    ignore (Engine.execute engine ~now ~arrival:t0 ~deadline:None req);
    let t1 = now () in
    (t1 -. t0, words () -. w0)
  in
  let (probe, t_scope), (exec_s, exec_w) =
    if traced_first then
      let tr = traced () in
      (tr, untraced ())
    else
      let un = untraced () in
      (traced (), un)
  in
  if r.record then begin
    r.requests <- r.requests + 1;
    r.exec_s <- r.exec_s +. exec_s;
    r.exec_w <- r.exec_w +. exec_w;
    r.exec_ms <- (exec_s *. 1000.) :: r.exec_ms;
    r.ratios <- (r.scope_s /. exec_s, t_scope /. exec_s) :: r.ratios;
    r.frame_bytes <- r.frame_bytes + String.length frame
  end;
  span r "probe" probe

let run_body r (req : Protocol.request) =
  let rr = match req.Protocol.op with Protocol.Run rr -> rr | _ -> failwith "replay: not a run" in
  let fe = Option.get (Frontend.find rr.Protocol.format) in
  let g =
    span ~scope:true r ("frontend." ^ fe.Frontend.name ^ ".parse") (fun () ->
        match Frontend.parse_one fe rr.Protocol.program with Ok g -> g | Error _ -> failwith "replay: parse")
  in
  if r.record then begin
    let c =
      match Hashtbl.find_opt r.fmt_bytes fe.Frontend.name with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.replace r.fmt_bytes fe.Frontend.name c;
        c
    in
    c := !c + String.length rr.Protocol.program
  end;
  let pool = span ~scope:true r "cfg.pool" (fun () -> Cfg.candidate_pool g) in
  let blocks = Cfg.label_bound g and exprs = Lcm_ir.Expr_pool.size pool in
  Pool.Scratch.with_arena ~blocks ~exprs @@ fun arena ->
  let a = span ~scope:true r "lcm.analyze" (fun () -> Lcm_edge.analyze ~scratch:arena g) in
  let g', rep = span ~scope:true r "transform.apply" (fun () -> Transform.apply g (Lcm_edge.spec g a)) in
  let before, after =
    span ~scope:true r "metrics.static" (fun () -> (Metrics.static_counts g, Metrics.static_counts g'))
  in
  let program = span ~scope:true r "cfg.print" (fun () -> Cfg.to_string g') in
  ignore
    (span ~scope:true r "protocol.encode" (fun () ->
         Protocol.ok_run ~id:req.Protocol.id ~trace_id:"t-1" ~algorithm:rr.Protocol.algorithm ~workers:1
           ~degraded:None ~validated:false ~program ~before ~after ~timing ()));
  if r.record then
    r.edits <-
      r.edits + rep.Transform.num_edge_insertions + rep.Transform.num_entry_insertions
      + rep.Transform.num_exit_insertions + rep.Transform.num_deletions + rep.Transform.num_copies;
  (* The dataflow probes, after the request: a second parse of the same
     program, so they pay the same first-use costs the analysis pays
     inside lcm.analyze. *)
  fun () ->
    let gp = match Frontend.parse_one fe rr.Protocol.program with Ok g -> g | Error _ -> assert false in
    let pool = Cfg.candidate_pool gp in
    Pool.Scratch.with_arena ~blocks ~exprs @@ fun probe ->
    let local = span r "dataflow.local" (fun () -> Local.compute ~scratch:probe gp pool) in
    let av = span r "dataflow.avail" (fun () -> Avail.compute ~scratch:probe gp local) in
    let an = span r "dataflow.antic" (fun () -> Antic.compute ~scratch:probe gp local) in
    if r.record then begin
      r.visits <- r.visits + av.Avail.visits + an.Antic.visits;
      r.sweeps <- r.sweeps + av.Avail.sweeps + an.Antic.sweeps
    end

(* ---- run workloads ---- *)

(* Replay [frames] pass after pass (the first pass warms up and is not
   recorded) until [budget_s] has passed, at least two recorded passes. *)
let replay_runs ~budget_s frames =
  let r = create () in
  let engine = Engine.default_config (Stats.create ()) in
  let t_end = now () +. budget_s in
  let pass = ref 0 in
  while !pass < 3 || now () < t_end do
    r.record <- !pass > 0;
    Array.iteri
      (fun i frame -> request r ~engine ~i ~frame ~traced_first:((i + !pass) mod 2 = 0) (run_body r))
      frames;
    incr pass
  done;
  r

(* ---- delta-journal ---- *)

let patch_of_wire (d : Protocol.delta_request) =
  List.concat_map
    (fun (e : Protocol.delta_edit) ->
      let l = Scanf.sscanf (Option.get e.Protocol.d_block) "B%d" Fun.id in
      match e.Protocol.d_instrs with
      | Some ss -> [ Patch.Set_instrs (l, List.map Cfg_text.parse_instr_line ss) ]
      | None -> [])
    d.Protocol.d_edits

let delta_body r ~journal ~states ~handle_index (req : Protocol.request) =
  let d = match req.Protocol.op with Protocol.Delta d -> d | _ -> failwith "replay: not a delta" in
  let h = handle_index d.Protocol.d_handle in
  let g0, saved0 = states.(h) in
  let edits = span ~scope:true r "protocol.edits" (fun () -> patch_of_wire d) in
  let g = span ~scope:true r "cfg.copy" (fun () -> Cfg.copy g0) in
  let dirty = span ~scope:true r "patch.apply" (fun () -> Patch.apply g edits) in
  let incremental = span ~scope:true r "lcm.incr" (fun () -> Lcm_edge.analyze_incr g ~prev:saved0 ~dirty) in
  let a, saved, region =
    match incremental with
    | Some (a, saved, region) -> (a, saved, region)
    | None ->
      let a, saved = span ~scope:true r "lcm.full" (fun () -> Lcm_edge.analyze_keep g) in
      (a, saved, Cfg.num_blocks g)
  in
  if r.record then begin
    r.region <- r.region + region;
    r.blocks <- r.blocks + Cfg.num_blocks g
  end;
  let g', rep = span ~scope:true r "transform.apply" (fun () -> Transform.apply g (Lcm_edge.spec g a)) in
  states.(h) <- (g, saved);
  (match
     span ~scope:true r "journal.append" (fun () ->
         Hjournal.record_patch journal ~handle:d.Protocol.d_handle ~edits:d.Protocol.d_edits_json
           ~algorithm:"lcm-edge" ~simplify:false ~program:(fun () -> Cfg.to_string g))
   with
  | Ok _ -> ()
  | Error m -> failwith ("replay: journal: " ^ m));
  let before, after =
    span ~scope:true r "metrics.static" (fun () -> (Metrics.static_counts g, Metrics.static_counts g'))
  in
  let program = span ~scope:true r "cfg.print" (fun () -> Cfg.to_string g') in
  ignore
    (span ~scope:true r "protocol.encode" (fun () ->
         let solve =
           Json.Obj
             [
               ("mode", Json.String "incremental");
               ("blocks", Json.Int (Cfg.num_blocks g));
               ("region_blocks", Json.Int region);
               ("visits", Json.Int a.Lcm_edge.visits);
             ]
         in
         Protocol.ok_delta ~id:req.Protocol.id ~trace_id:"t-1" ~algorithm:"lcm-edge" ~validated:false
           ~extra:[ ("handle", Json.String d.Protocol.d_handle); ("solve", solve) ]
           ~program ~before ~after ~timing ()));
  if r.record then
    r.edits <-
      r.edits + rep.Transform.num_edge_insertions + rep.Transform.num_entry_insertions
      + rep.Transform.num_exit_insertions + rep.Transform.num_deletions + rep.Transform.num_copies;
  (* The probe, after the request: what a from-scratch solve of the same
     graph visits. *)
  fun () ->
    if r.record && Option.is_some incremental then begin
      let full, _ = Lcm_edge.analyze_keep (Cfg.copy g) in
      r.incr <- r.incr + 1;
      r.incr_visits <- r.incr_visits + a.Lcm_edge.visits;
      r.full_visits <- r.full_visits + full.Lcm_edge.visits
    end

let handle_name = Printf.sprintf "h0-%d"

(* Retain every base in both the traced state and an untraced engine
   (each journaling to its own directory, fsync on), then replay the delta
   stream until [budget_s] has passed.  The first 16 deltas warm up. *)
let replay_deltas ~budget_s ~dir ~seed (bases : Gen.base array) =
  let r = create () in
  let journal_dir sub =
    let d = Filename.concat dir sub in
    match Hjournal.create ~dir:d () with Ok j -> j | Error m -> failwith ("replay: journal: " ^ m)
  in
  let traced_journal = journal_dir "traced" in
  let engine = Engine.default_config ~journal:(journal_dir "engine") (Stats.create ()) in
  let states =
    Array.mapi
      (fun h (b : Gen.base) ->
        let g = Cfg_text.parse b.Gen.b_text in
        (match
           Hjournal.record_base traced_journal ~handle:(handle_name (h + 1)) ~algorithm:"lcm-edge"
             ~simplify:false ~program:b.Gen.b_text
         with
        | Ok () -> ()
        | Error m -> failwith m);
        ignore
          (Engine.execute engine ~now ~arrival:(now ()) ~deadline:None
             (match Protocol.parse_request ("{\"id\":0" ^ Gen.retain_frame_tail b) with
             | Ok req -> req
             | Error _ -> failwith "replay: retain"));
        (g, snd (Lcm_edge.analyze_keep g)))
      bases
  in
  let handle_index name = Scanf.sscanf name "h0-%d" (fun n -> n - 1) in
  let n = Array.length bases in
  let t_end = now () +. budget_s in
  let i = ref 0 in
  while !i < 16 + (2 * n) || now () < t_end do
    r.record <- !i >= 16;
    let h = !i mod n in
    let d = Gen.delta_edit bases seed ~handle:h ~index:(!i / n) in
    let frame = "{\"id\":" ^ string_of_int !i ^ Gen.delta_frame_tail ~handle_name:(handle_name (h + 1)) d in
    request r ~engine ~i:!i ~frame ~traced_first:((!i + (!i / n)) mod 2 = 0)
      (delta_body r ~journal:traced_journal ~states ~handle_index);
    incr i
  done;
  r

(* Engine.recover on a copy of a journal directory, in milliseconds. *)
let recover_ms ~dir =
  let j = match Hjournal.create ~dir () with Ok j -> j | Error m -> failwith m in
  let cfg = Engine.default_config ~journal:j (Stats.create ()) in
  let t0 = now () in
  Engine.recover cfg;
  (now () -. t0) *. 1000.
