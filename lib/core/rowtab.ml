module Arena = Lcm_support.Arena

(* A copy-on-write table reads the captured matrix itself until its first
   write, which copies the matrix and checks the change list out of
   [work]: most deltas change no row of most tables, and those cost
   nothing. *)
type t = {
  mutable m : int array;
  base : int array;
  nw : int;
  count : int;
  cow : bool;
  export : bool;
  work : Arena.t option;
  mutable marked : bool array;
  mutable changed : int array;
  mutable nchanged : int;
}

let fresh ~export m ~nw ~count =
  { m; base = m; nw; count; cow = false; export; work = None; marked = [||]; changed = [||]; nchanged = 0 }

let cow work base ~nw ~count =
  { m = base; base; nw; count; cow = true; export = true; work; marked = [||]; changed = [||]; nchanged = 0 }

let words t = t.m
let base t = t.base

(* Before writing row [i]: a copy-on-write table copies the captured
   matrix on its first write and notes each written row once. *)
let own t i =
  if t.cow then begin
    if t.m == t.base then begin
      t.m <- Array.copy t.base;
      t.marked <- Arena.alloc_bool t.work t.count;
      t.changed <- Arena.alloc_int t.work t.count
    end;
    if not (Array.unsafe_get t.marked i) then begin
      t.marked.(i) <- true;
      t.changed.(t.nchanged) <- i;
      t.nchanged <- t.nchanged + 1
    end
  end

let rec differs a ao b bo nw w =
  w < nw && (Array.unsafe_get a (ao + w) <> Array.unsafe_get b (bo + w) || differs a ao b bo nw (w + 1))

let store t i acc =
  let nw = t.nw in
  let o = i * nw in
  differs acc 0 t.m o nw 0
  && begin
       own t i;
       let m = t.m in
       for w = 0 to nw - 1 do
         Array.unsafe_set m (o + w) (Array.unsafe_get acc w)
       done;
       true
     end

let rec any_clear mask m o nw w =
  w < nw && (Array.unsafe_get mask w land lnot (Array.unsafe_get m (o + w)) <> 0 || any_clear mask m o nw (w + 1))

let rec any_set mask m o nw w =
  w < nw && (Array.unsafe_get mask w land Array.unsafe_get m (o + w) <> 0 || any_set mask m o nw (w + 1))

let raise_bits t i mask =
  let nw = t.nw in
  let o = i * nw in
  any_clear mask t.m o nw 0
  && begin
       own t i;
       for w = 0 to nw - 1 do
         t.m.(o + w) <- t.m.(o + w) lor mask.(w)
       done;
       true
     end

let clear_bits t i mask =
  let nw = t.nw in
  let o = i * nw in
  any_set mask t.m o nw 0
  && begin
       own t i;
       for w = 0 to nw - 1 do
         t.m.(o + w) <- t.m.(o + w) land lnot mask.(w)
       done;
       true
     end

(* A copy-on-write table keeps, of the rows it wrote, those that ended
   away from the captured value, and is the captured matrix again when
   none did; an exported fresh table moves to an exact-size heap array. *)
let seal t =
  if t.cow then begin
    let k = ref 0 in
    for j = 0 to t.nchanged - 1 do
      let i = t.changed.(j) in
      if differs t.m (i * t.nw) t.base (i * t.nw) t.nw 0 then begin
        t.changed.(!k) <- i;
        incr k
      end
    done;
    t.nchanged <- !k;
    if !k = 0 then t.m <- t.base
  end
  else if t.export then t.m <- Array.sub t.m 0 (t.count * t.nw)

let nchanged t = t.nchanged
let changed t j = t.changed.(j)

let rec index_from row x i =
  if i >= Array.length row then -1 else if Array.unsafe_get row i = x then i else index_from row x (i + 1)

let index row x = index_from row x 0

type queue = {
  buf : int array;
  queued : bool array;
  cap : int;
  mutable head : int;
  mutable tail : int;
}

let queue work bound =
  let cap = bound + 1 in
  { buf = Arena.alloc_int work cap; queued = Arena.alloc_bool work (max 1 bound); cap; head = 0; tail = 0 }

let push q l =
  if not (Array.unsafe_get q.queued l) then begin
    q.queued.(l) <- true;
    q.buf.(q.tail) <- l;
    q.tail <- (if q.tail + 1 = q.cap then 0 else q.tail + 1)
  end

let is_empty q = q.head = q.tail

let pop q =
  let l = q.buf.(q.head) in
  q.head <- (if q.head + 1 = q.cap then 0 else q.head + 1);
  q.queued.(l) <- false;
  l

type lifts = {
  stack : int array;
  on_stack : bool array;
  mutable nstack : int;
  mask : int array;
}

let lifts work bound nw =
  {
    stack = Arena.alloc_int work (max 1 bound);
    on_stack = Arena.alloc_bool work (max 1 bound);
    nstack = 0;
    mask = Arena.alloc_int work (max 1 nw);
  }

let note lf l =
  if not lf.on_stack.(l) then begin
    lf.on_stack.(l) <- true;
    lf.stack.(lf.nstack) <- l;
    lf.nstack <- lf.nstack + 1
  end

let next_lifted lf =
  if lf.nstack = 0 then -1
  else begin
    lf.nstack <- lf.nstack - 1;
    let l = lf.stack.(lf.nstack) in
    lf.on_stack.(l) <- false;
    l
  end
