(* A scratch arena for the per-request solver state.

   The LCM cascade allocates a knowable set of buffers for a given
   (blocks × exprs) shape: bit vectors of [exprs] bits (a few per block for
   each equation system), flat [Bitvec.t array]s indexed by block or edge,
   and small int/bool scratch arrays for the worklist machinery.  An arena
   owns bump-cursor pools of exactly those objects, *size-bucketed* to the
   next power of two so near-miss shapes reuse each other's storage.

   A pool parks whole ready-made objects — complete [Bitvec.t] records, not
   just their word buffers — in an array with a cursor: the prefix
   [0, next) is loaned out, the suffix [next, count) is parked.  A checkout
   in steady state is cursor-bump + in-place re-initialization
   ({!Bitvec.reinit} / [Array.fill] of the used prefix) and allocates
   *nothing*; only a cold pool heap-allocates a new object (counted in
   [misses]).  Re-initialization clears the used prefix, so a recycled
   object can never leak the previous request's bits.

   [reset a] reclaims everything at once by rewinding every cursor to 0.
   There is no per-object free; lifetimes in the engine are strictly
   per-request, so bulk reset is both O(pools) and panic-proof (the engine
   resets in a [Fun.protect] finalizer).

   An arena is single-owner: one request on one domain.  Concurrency is
   handled a level up (Pool.Scratch keeps per-domain arena freelists); the
   arena itself has no locks and must not be shared.

   Callers thread an [t option] because every allocating API keeps working
   without an arena — [alloc]/[alloc_copy]/... fall back to plain heap
   allocation on [None], which is what makes the existing entry points
   "thin wrappers" over the scratch-aware ones. *)

type 'a pool = {
  pcap : int;  (* capacity (words or cells) of every item in this pool *)
  mutable items : 'a array;  (* loaned prefix [0,next), parked [next,count) *)
  mutable count : int;
  mutable next : int;
}

(* Page tables ({!pages}) are keyed by the exact page size and a bucket
   of the page count. *)
type page_pool = {
  page_words : int;
  page_ccap : int;
  spines : int array array pool;
}

(* Cells that are never cleared: each checkout takes a fresh [mark] from
   its arena, and a cell is set in that checkout when its high bits hold
   the mark ([stamp_shift] low bits carry a small count).  A checkout
   costs no pass over the cells, only the cells its user touches. *)
type stamps = { cells : int array; mutable mark : int }

type t = {
  mutable vec_pools : Bitvec.t pool list;  (* ascending capacity; a handful *)
  mutable int_pools : int array pool list;
  mutable raw_pools : int array pool list;
  mutable stamp_pools : stamps pool list;
  mutable epoch : int;  (* the last mark a stamps checkout took *)
  mutable bool_pools : bool array pool list;
  mutable slot_pools : Bitvec.t array pool list;
  mutable page_pools : page_pool list;
  mutable checkouts : int;  (* lifetime checkouts, for tests/stats *)
  mutable misses : int;  (* checkouts that had to heap-allocate a new item *)
}

let create () =
  {
    vec_pools = [];
    int_pools = [];
    raw_pools = [];
    stamp_pools = [];
    epoch = 0;
    bool_pools = [];
    slot_pools = [];
    page_pools = [];
    checkouts = 0;
    misses = 0;
  }

(* Pool capacities are powers of two with a floor of 8: a 5-word and a
   7-word vector land in the same 8-word pool, so shapes that differ by a
   few expressions share storage instead of fragmenting the pools. *)
let min_bucket = 8

(* Top-level recursion, not a local [let rec go]: a local closure would
   capture [n] and allocate 4 words on every checkout — the exact hot path
   this module exists to keep allocation-free. *)
let rec bucket_up n c = if c >= n then c else bucket_up n (c * 2)
let bucket_size n = bucket_up n min_bucket

(* The pool lists stay sorted ascending and hold O(log max-shape) entries,
   so a linear walk is fine.  [find] raises [Not_found] rather than return
   an option so the steady-state checkout path allocates nothing at all. *)
let rec find lst cap =
  match lst with
  | p :: _ when p.pcap = cap -> p
  | p :: rest when p.pcap < cap -> find rest cap
  | _ -> raise Not_found

let rec insert p = function
  | p' :: rest when p'.pcap < p.pcap -> p' :: insert p rest
  | rest -> p :: rest

(* Park a freshly heap-allocated item as loaned: it sits at the cursor, so
   after the current request's [reset] it is recycled like any other. *)
let push p x =
  if p.count = Array.length p.items then begin
    let items = Array.make (max 4 (2 * p.count)) x in
    Array.blit p.items 0 items 0 p.count;
    p.items <- items
  end;
  p.items.(p.count) <- x;
  p.count <- p.count + 1;
  p.next <- p.count

let vec_pool a cap =
  try find a.vec_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.vec_pools <- insert p a.vec_pools;
    p

let int_pool a cap =
  try find a.int_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.int_pools <- insert p a.int_pools;
    p

let raw_pool a cap =
  try find a.raw_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.raw_pools <- insert p a.raw_pools;
    p

let stamp_pool a cap =
  try find a.stamp_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.stamp_pools <- insert p a.stamp_pools;
    p

let bool_pool a cap =
  try find a.bool_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.bool_pools <- insert p a.bool_pools;
    p

let slot_pool a cap =
  try find a.slot_pools cap
  with Not_found ->
    let p = { pcap = cap; items = [||]; count = 0; next = 0 } in
    a.slot_pools <- insert p a.slot_pools;
    p

let bitvec a n =
  let p = vec_pool a (bucket_size (Bitvec.words_for n)) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let v = p.items.(p.next) in
    p.next <- p.next + 1;
    Bitvec.reinit v n;
    v
  end
  else begin
    a.misses <- a.misses + 1;
    let v = Bitvec.of_buffer (Array.make p.pcap 0) n in
    push p v;
    v
  end

let bitvec_full a n =
  let p = vec_pool a (bucket_size (Bitvec.words_for n)) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let v = p.items.(p.next) in
    p.next <- p.next + 1;
    Bitvec.reinit_full v n;
    v
  end
  else begin
    a.misses <- a.misses + 1;
    let v = Bitvec.of_buffer_full (Array.make p.pcap 0) n in
    push p v;
    v
  end

let copy a v =
  let r = bitvec a (Bitvec.length v) in
  ignore (Bitvec.blit ~src:v ~dst:r);
  r

(* Raw int scratch, zero-filled over the first [n] cells (callers see a
   logically fresh array; cells past [n] are dead storage).  Used for the
   worklist priority heaps and visit counters. *)
let int_array a n =
  let p = int_pool a (bucket_size n) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let buf = p.items.(p.next) in
    p.next <- p.next + 1;
    Array.fill buf 0 n 0;
    buf
  end
  else begin
    a.misses <- a.misses + 1;
    let buf = Array.make p.pcap 0 in
    push p buf;
    buf
  end

(* Int scratch whose cells hold whatever the last checkout left: for
   stacks and queues, which write a cell before reading it. *)
let raw_int_array a n =
  let p = raw_pool a (bucket_size n) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let buf = p.items.(p.next) in
    p.next <- p.next + 1;
    buf
  end
  else begin
    a.misses <- a.misses + 1;
    let buf = Array.make p.pcap 0 in
    push p buf;
    buf
  end

let stamp_shift = 20
let count_mask = (1 lsl stamp_shift) - 1

let stamps_of a n =
  let p = stamp_pool a (bucket_size n) in
  a.checkouts <- a.checkouts + 1;
  a.epoch <- a.epoch + 1;
  if p.next < p.count then begin
    let s = p.items.(p.next) in
    p.next <- p.next + 1;
    s.mark <- a.epoch;
    s
  end
  else begin
    a.misses <- a.misses + 1;
    let s = { cells = Array.make p.pcap 0; mark = a.epoch } in
    push p s;
    s
  end

let[@inline] is_set s i = s.cells.(i) lsr stamp_shift = s.mark
let[@inline] set s i = s.cells.(i) <- s.mark lsl stamp_shift
let[@inline] clear s i = s.cells.(i) <- 0
let[@inline] count s i = if is_set s i then s.cells.(i) land count_mask else 0
let[@inline] set_count s i c = s.cells.(i) <- (s.mark lsl stamp_shift) lor min c count_mask

let bool_array a n =
  let p = bool_pool a (bucket_size n) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let buf = p.items.(p.next) in
    p.next <- p.next + 1;
    Array.fill buf 0 n false;
    buf
  end
  else begin
    a.misses <- a.misses + 1;
    let buf = Array.make p.pcap false in
    push p buf;
    buf
  end

(* A [Bitvec.t array] for per-block/per-edge solver state.  Slots are reset
   to a shared zero-width dummy so stale vector *references* from the
   previous checkout cannot leak (the vectors themselves are reclaimed
   separately via the vec pools). *)
let empty_vec = Bitvec.create 0

let vec_array a n =
  let p = slot_pool a (bucket_size n) in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let buf = p.items.(p.next) in
    p.next <- p.next + 1;
    Array.fill buf 0 (Array.length buf) empty_vec;
    buf
  end
  else begin
    a.misses <- a.misses + 1;
    let buf = Array.make p.pcap empty_vec in
    push p buf;
    buf
  end

(* A table's spine and pages as one checkout: the spine is parked with
   its pages, so a warm checkout stores no pointer at all.  Pages are not
   re-initialized: {!Rowtab.create} writes every row it hands out. *)
let rec find_pages lst words ccap =
  match lst with
  | r :: _ when r.page_words = words && r.page_ccap = ccap -> r.spines
  | _ :: rest -> find_pages rest words ccap
  | [] -> raise Not_found

let pages_pool a words ccap =
  try find_pages a.page_pools words ccap
  with Not_found ->
    let spines = { pcap = words * ccap; items = [||]; count = 0; next = 0 } in
    a.page_pools <- { page_words = words; page_ccap = ccap; spines } :: a.page_pools;
    spines

let pages a ~words count =
  let ccap = bucket_size count in
  let p = pages_pool a words ccap in
  a.checkouts <- a.checkouts + 1;
  if p.next < p.count then begin
    let t = p.items.(p.next) in
    p.next <- p.next + 1;
    t
  end
  else begin
    a.misses <- a.misses + 1;
    let t = Array.init ccap (fun _ -> Array.make words 0) in
    push p t;
    t
  end

let reset a =
  let rewind p = p.next <- 0 in
  List.iter (fun r -> rewind r.spines) a.page_pools;
  List.iter rewind a.vec_pools;
  List.iter rewind a.int_pools;
  List.iter rewind a.raw_pools;
  List.iter rewind a.stamp_pools;
  List.iter rewind a.bool_pools;
  (* Unpin eagerly: a parked slot array must not keep the previous
     request's Bitvecs reachable through slots nobody re-fills. *)
  List.iter
    (fun p ->
      for i = 0 to p.next - 1 do
        let arr = p.items.(i) in
        Array.fill arr 0 (Array.length arr) empty_vec
      done;
      rewind p)
    a.slot_pools

let retained_words a =
  let words_of acc p = acc + (p.pcap * p.count) in
  let pages_of acc r = words_of acc r.spines in
  List.fold_left words_of
    (List.fold_left pages_of
       (List.fold_left words_of (List.fold_left words_of (List.fold_left words_of 0 a.vec_pools) a.int_pools) a.raw_pools)
       a.page_pools)
    a.stamp_pools

let checkouts a = a.checkouts
let misses a = a.misses

(* ---- optional-arena helpers ----------------------------------------------

   The solve entry points take [?scratch:Arena.t] and call these; [None]
   means "allocate on the heap as before", which keeps every existing API a
   thin wrapper with identical behavior. *)

let alloc scratch n = match scratch with Some a -> bitvec a n | None -> Bitvec.create n
let alloc_full scratch n = match scratch with Some a -> bitvec_full a n | None -> Bitvec.create_full n

let alloc_copy scratch v =
  match scratch with Some a -> copy a v | None -> Bitvec.copy v

let alloc_int scratch n = match scratch with Some a -> int_array a n | None -> Array.make n 0

let alloc_raw_int scratch n = match scratch with Some a -> raw_int_array a n | None -> Array.make n 0
let alloc_stamps scratch n = match scratch with Some a -> stamps_of a n | None -> { cells = Array.make n 0; mark = 1 }

let alloc_bool scratch n =
  match scratch with Some a -> bool_array a n | None -> Array.make n false

let alloc_vec scratch n =
  match scratch with Some a -> vec_array a n | None -> Array.make n empty_vec
