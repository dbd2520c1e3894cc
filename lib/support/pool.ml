(* A fixed-size pool of domains draining one shared task queue.

   Tasks are plain thunks; [run] enqueues a batch and the calling thread
   helps drain the queue until its batch completes, so the caller counts
   as one of the pool's domains.  A task never submits a batch of its own:
   [run] from inside a task of the same pool is refused, so a waiting
   thread only ever blocks on tasks that are already running. *)

module Trace = Lcm_obs.Trace

type task = unit -> unit

(* Trace context is domain-local, so by itself it would not follow a task
   onto a worker domain and the task's spans would be orphans.  Capture the
   submitter's context at [run] time and reinstall it around each task,
   under a "pool.task" span.  Free when tracing is disabled (one atomic
   load) or the submitter is outside any trace. *)
let traced tasks =
  if not (Trace.enabled ()) then tasks
  else
    match Trace.current () with
    | None -> tasks
    | Some ctx ->
      List.map
        (fun task () -> Trace.with_ctx (Some ctx) (fun () -> Trace.span "pool.task" task))
        tasks

(* One [run] call.  [pending] counts tasks not yet finished; the first
   exception raised by any task of the batch is kept and re-raised by
   [run] after the whole batch has drained. *)
type batch = {
  mutable pending : int;
  mutable failure : exn option;
}

type t = {
  id : int;  (* for the nested-run check *)
  lock : Mutex.t;
  wake : Condition.t;  (* new work queued, a task finished, or shutdown *)
  queue : (task * batch) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

let size t = t.size

(* The pool whose task this domain is running, if any. *)
let running : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let next_id = Atomic.make 0

(* Run one task under the running-pool mark; [None] or the exception it
   raised.  "pool.task" is the worker-death chaos point: an injected raise
   here is exactly what a task dying on a pool domain looks like to the
   batch (first failure kept, re-raised by [run] after the drain). *)
let exec t task =
  let outer = Domain.DLS.get running in
  Domain.DLS.set running (Some t.id);
  let failure =
    try
      Fault.inject "pool.task";
      task ();
      None
    with e -> Some e
  in
  Domain.DLS.set running outer;
  failure

(* Drain tasks until [finished ()] holds.  [finished] is evaluated with the
   lock held. *)
let help t finished =
  Mutex.lock t.lock;
  while not (finished ()) do
    match Queue.take_opt t.queue with
    | Some (task, batch) ->
      Mutex.unlock t.lock;
      let failure = exec t task in
      Mutex.lock t.lock;
      (match failure with
      | Some _ when batch.failure = None -> batch.failure <- failure
      | Some _ | None -> ());
      batch.pending <- batch.pending - 1;
      Condition.broadcast t.wake
    | None -> Condition.wait t.wake t.lock
  done;
  Mutex.unlock t.lock

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least 1 domain";
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      lock = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      size = n;
    }
  in
  if n > 1 then
    t.workers <- List.init (n - 1) (fun _ -> Domain.spawn (fun () -> help t (fun () -> t.stop)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let run t tasks =
  if Domain.DLS.get running = Some t.id then
    invalid_arg "Pool.run: a task of this pool submitted a nested batch";
  let raise_first = function Some e -> raise e | None -> () in
  match traced tasks with
  | [] -> ()
  | [ task ] -> raise_first (exec t task)
  | tasks when t.size <= 1 ->
    (* Single-domain pool: the sequential fallback, no queue round-trip.
       Same semantics as the parallel path: the whole batch drains, the
       first failure is re-raised afterwards. *)
    raise_first
      (List.fold_left
         (fun first task ->
           let failure = exec t task in
           match first with None -> failure | Some _ -> first)
         None tasks)
  | tasks ->
    let batch = { pending = List.length tasks; failure = None } in
    Mutex.lock t.lock;
    List.iter (fun task -> Queue.add (task, batch) t.queue) tasks;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    help t (fun () -> batch.pending = 0);
    raise_first batch.failure

(* Pool size from LCM_DOMAINS when set (CI forces 1 and 4 to cover both
   the sequential-fallback and parallel paths), otherwise what the runtime
   recommends for this machine, capped to keep small machines from
   oversubscribing on wide corpus fan-outs. *)

let env_var = "LCM_DOMAINS"

let default_size () =
  match Option.bind (Sys.getenv_opt env_var) int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> min 8 (Domain.recommended_domain_count ())

(* More domains than cores only time-slice the same cores: BENCH_parallel
   read 0.20-0.23x at 4 and 8 domains on 2 cores. *)
let clamp_workers ~cores n = if cores >= 1 && n > cores then cores else n

(* ---- per-domain scratch arenas --------------------------------------------

   The engine checks an arena out per request, keyed by the request's
   (blocks, exprs) *shape class* — both axes rounded up to powers of two so
   near-miss shapes reuse the same arenas instead of fragmenting into one
   pool per exact shape.  Arenas live in domain-local storage: no locks,
   and no arena ever crosses domains (an Arena.t is single-owner).

   Checkouts nest: a solve called without an arena checks one out for its
   working storage, possibly inside a request's own checkout on the same
   domain.  The freelist-stack discipline (pop on
   checkout, push on return) handles that naturally — the inner checkout
   pops a different arena (or creates one), and returns restore in LIFO
   order. *)

module Scratch = struct
  let pow2_floor = 16

  let shape_class ~blocks ~exprs =
    let rec up c n = if c >= n then c else up (c * 2) n in
    (up pow2_floor blocks, up pow2_floor exprs)

  let slots : (int * int, Arena.t list ref) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)

  let with_arena ~blocks ~exprs f =
    let tbl = Domain.DLS.get slots in
    let key = shape_class ~blocks ~exprs in
    let cell =
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add tbl key c;
        c
    in
    let arena =
      match !cell with
      | a :: rest ->
        cell := rest;
        a
      | [] -> Arena.create ()
    in
    (* Reset inside the finalizer, not on checkout: a panic escaping [f]
       (chaos injection, tier failure) must still reclaim every loan, and
       the arena must be parked clean so [retained_words] reflects steady
       state. *)
    Fun.protect
      ~finally:(fun () ->
        Arena.reset arena;
        cell := arena :: !cell)
      (fun () -> f arena)

  (* Footprint of this domain's parked arenas, for the stats snapshot. *)
  let domain_retained_words () =
    let tbl = Domain.DLS.get slots in
    Hashtbl.fold
      (fun _ cell acc -> List.fold_left (fun acc a -> acc + Arena.retained_words a) acc !cell)
      tbl 0
end
