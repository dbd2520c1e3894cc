type span = {
  id : int;
  parent : int;
  trace_id : string;
  name : string;
  domain : int;
  t_start : float;
  t_end : float;
  alloc_w : float;
  attrs : (string * string) list;
}

let dur sp = sp.t_end -. sp.t_start

(* One buffer per domain: appends take only the buffer's own mutex, so
   pool workers never contend with each other.  The
   collector's lock guards only the buffer list (taken once per domain per
   collector generation, and by drains). *)
type buffer = {
  b_domain : int;
  b_lock : Mutex.t;
  mutable b_spans : span list;  (* newest first *)
}

type collector = {
  gen : int;  (* distinguishes enable/disable cycles in the DLS cache *)
  c_lock : Mutex.t;
  mutable c_buffers : buffer list;
}

(* The production state is [None]: a probe is one atomic load + branch —
   the same discipline as [Fault]. *)
let state : collector option Atomic.t = Atomic.make None
let generations = Atomic.make 0

let enabled () = Atomic.get state <> None

let enable () =
  Atomic.set state
    (Some { gen = Atomic.fetch_and_add generations 1; c_lock = Mutex.create (); c_buffers = [] })

let disable () = Atomic.set state None

let span_ids = Atomic.make 0
let mint_span_id () = Atomic.fetch_and_add span_ids 1

(* Trace ids are minted from a plain process-wide counter: deterministic
   (golden-testable) within one process, and the bundled client prefixes
   its own pid for cross-process uniqueness. *)
let trace_ids = Atomic.make 0
let mint_id () = "t-" ^ string_of_int (1 + Atomic.fetch_and_add trace_ids 1)

(* Domain-local cache of (generation, buffer); re-registers after an
   enable/disable cycle invalidates the cached buffer. *)
let buffer_key : (int * buffer) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let my_buffer c =
  let cell = Domain.DLS.get buffer_key in
  match !cell with
  | Some (g, b) when g = c.gen -> b
  | _ ->
    let b = { b_domain = (Domain.self () :> int); b_lock = Mutex.create (); b_spans = [] } in
    Mutex.lock c.c_lock;
    c.c_buffers <- b :: c.c_buffers;
    Mutex.unlock c.c_lock;
    cell := Some (c.gen, b);
    b

type ctx = {
  trace_id : string;
  parent : int;
}

let ctx_key : ctx option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get ctx_key)

let with_ctx c f =
  let cell = Domain.DLS.get ctx_key in
  let saved = !cell in
  cell := c;
  Fun.protect ~finally:(fun () -> cell := saved) f

let record c sp =
  let b = my_buffer c in
  Mutex.lock b.b_lock;
  b.b_spans <- sp :: b.b_spans;
  Mutex.unlock b.b_lock

(* Minor collections plus completed major cycles, as [Gc.quick_stat]
   counts them, read straight from the runtime's counters. *)
external collections : unit -> int = "lcm_obs_gc_collections" [@@noalloc]

(* Words allocated so far: [Gc.minor_words] up to the minor heap's current
   fill ([Gc.allocated_bytes]'s minor figure moves only at a collection,
   crediting a short span with nothing or a whole minor heap), plus what
   was allocated in the major heap directly. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let span_attrs name f =
  match Atomic.get state with
  | None -> fst (f ())
  | Some c ->
    (match current () with
    | None -> fst (f ())
    | Some ctx ->
      let id = mint_span_id () in
      let cell = Domain.DLS.get ctx_key in
      cell := Some { ctx with parent = id };
      let g0 = collections () in
      let a0 = allocated_words () in
      let t0 = Unix.gettimeofday () in
      let finish attrs =
        let t1 = Unix.gettimeofday () in
        let alloc_w = allocated_words () -. a0 in
        (* Collections that fired inside the span; attached only when
           non-zero so the common (collection-free, arena-backed) case
           costs no attr.  A minor collection stops every domain, so the
           count includes those another domain triggered. *)
        let gc_n = collections () - g0 in
        let attrs = if gc_n > 0 then ("gc", string_of_int gc_n) :: attrs else attrs in
        cell := Some ctx;
        record c
          {
            id;
            parent = ctx.parent;
            trace_id = ctx.trace_id;
            name;
            domain = (Domain.self () :> int);
            t_start = t0;
            t_end = t1;
            alloc_w;
            attrs;
          }
      in
      (match f () with
      | v, attrs ->
        finish attrs;
        v
      | exception e ->
        finish [ ("error", Printexc.to_string e) ];
        raise e))

let span name f = span_attrs name (fun () -> (f (), []))

let in_trace ~trace_id name f =
  match Atomic.get state with
  | None -> f ()
  | Some _ -> with_ctx (Some { trace_id; parent = -1 }) (fun () -> span name f)

(* ---- draining ---- *)

let by_start a b = compare (a.t_start, a.id) (b.t_start, b.id)

let buffers () =
  match Atomic.get state with
  | None -> []
  | Some c ->
    Mutex.lock c.c_lock;
    let bs = c.c_buffers in
    Mutex.unlock c.c_lock;
    bs

let drain () =
  buffers ()
  |> List.concat_map (fun b ->
         Mutex.lock b.b_lock;
         let s = b.b_spans in
         b.b_spans <- [];
         Mutex.unlock b.b_lock;
         s)
  |> List.sort by_start

let take ~trace_id =
  buffers ()
  |> List.concat_map (fun b ->
         Mutex.lock b.b_lock;
         let mine, rest =
           List.partition (fun (sp : span) -> String.equal sp.trace_id trace_id) b.b_spans
         in
         b.b_spans <- rest;
         Mutex.unlock b.b_lock;
         mine)
  |> List.sort by_start

(* ---- exporters ---- *)

let attrs_json (sp : span) =
  Json.Obj
    ([
       ("trace_id", Json.String sp.trace_id);
       ("span_id", Json.Int sp.id);
       ("parent_id", Json.Int sp.parent);
       ("alloc_w", Json.Float (Float.round sp.alloc_w));
     ]
    @ List.map (fun (k, v) -> (k, Json.String v)) sp.attrs)

let chrome_event (sp : span) =
  Json.Obj
    [
      ("name", Json.String sp.name);
      ("cat", Json.String "lcm");
      ("ph", Json.String "X");
      ("ts", Json.Float (Float.round (sp.t_start *. 1e6)));
      ("dur", Json.Float (Float.round (Float.max 0. (dur sp) *. 1e6)));
      ("pid", Json.Int (Unix.getpid ()));
      ("tid", Json.Int sp.domain);
      ("args", attrs_json sp);
    ]

let to_chrome spans = Json.to_string (Json.List (List.map chrome_event spans))

let span_json (sp : span) =
  Json.Obj
    [
      ("id", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("trace_id", Json.String sp.trace_id);
      ("name", Json.String sp.name);
      ("domain", Json.Int sp.domain);
      ("start_s", Json.Float sp.t_start);
      ("dur_ms", Json.Float (Float.max 0. (dur sp) *. 1000.));
      ("alloc_w", Json.Float (Float.round sp.alloc_w));
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) sp.attrs));
    ]

let to_jsonl spans = String.concat "" (List.map (fun sp -> Json.to_string (span_json sp) ^ "\n") spans)
