(* A table of [count] rows of [nw] words each, stored as a spine of pages:
   row [i] is the [nw] words at [(i land (rpp - 1)) * nw] of page
   [i lsr shift], [rpp = 1 lsl shift] rows to a page.  [rpp] is the largest
   power of two whose page fits in [page_words] (one row per page when a
   row alone is wider), so a page stays a minor-heap object.

   A fresh table writes its pages in place.  A copy-on-write table starts
   on the spine of a sealed table (its [base]) and copies the spine on its
   first write and a page on the first write to it, so a restart that
   writes a handful of rows copies a few pages, never the table.  Sealing
   puts back the base's page wherever no row of a copied page ended
   changed, lists the rows that did from the copied pages alone, and
   drops the reference to the base, so a sealed table never pins the one
   it was made over. *)

type t = {
  nw : int;
  shift : int;
  count : int;
  mutable spine : int array array;
  mutable base : int array array;
  mutable base_count : int;
  mutable cow : bool;
  work : Arena.t option;
  mutable changed : int array;
  mutable nchanged : int;
}

(* [Max_young_wosize]: larger blocks go straight to the major heap. *)
let page_words = 256

(* The rows per page: the most that fit in [page_words], and no more than
   [count] rounded up to a power of two, so a small table is one small
   page. *)
let rec shift_for nw count s =
  if (2 lsl s) * nw <= page_words && 1 lsl s < count then shift_for nw count (s + 1) else s
let npages count shift = (count + (1 lsl shift) - 1) lsr shift
let[@inline] page t i = Array.unsafe_get t.spine (i lsr t.shift)
let[@inline] off t i = (i land ((1 lsl t.shift) - 1)) * t.nw
let[@inline] base_page t i = Array.unsafe_get t.base (i lsr t.shift)
let has_base t i = i < t.base_count

let check t i =
  if i < 0 || i >= t.count then invalid_arg (Printf.sprintf "Rowtab: row %d of %d" i t.count)

let blit_row src so dst o nw =
  for w = 0 to nw - 1 do
    Array.unsafe_set dst (o + w) (Array.unsafe_get src (so + w))
  done

let create work ~nw ~count init =
  let shift = shift_for (max 1 nw) count 0 in
  let np = max 1 (npages count shift) and pw = (1 lsl shift) * nw in
  let spine =
    match work with Some a -> Arena.pages a ~words:pw np | None -> Array.init np (fun _ -> Array.make pw 0)
  in
  let t =
    { nw; shift; count; spine; base = spine; base_count = count; cow = false; work; changed = [||]; nchanged = 0 }
  in
  for i = 0 to count - 1 do
    blit_row init 0 (page t i) (off t i) nw
  done;
  t

(* Before a write to row [i]: the page to write. *)
let own t i =
  let k = i lsr t.shift in
  if not t.cow then t.spine.(k)
  else begin
    if t.spine == t.base then t.spine <- Array.copy t.base;
    let p = t.spine.(k) in
    if k < Array.length t.base && p == t.base.(k) then begin
      let c = Array.copy p in
      t.spine.(k) <- c;
      c
    end
    else p
  end

let cow work prev ~count init =
  if count < prev.count then invalid_arg "Rowtab.cow: fewer rows than the base";
  let base = prev.spine in
  let t = { prev with count; spine = base; base; base_count = prev.count; cow = true; work; changed = [||]; nchanged = 0 } in
  if count > prev.count then begin
    let np = npages count t.shift in
    if np > Array.length base then begin
      let pw = (1 lsl t.shift) * t.nw in
      t.spine <- Array.init np (fun k -> if k < Array.length base then base.(k) else Array.make pw 0)
    end;
    for i = prev.count to count - 1 do
      blit_row init 0 (own t i) (off t i) t.nw
    done
  end;
  t

let differs a ao b bo nw w =
  let w = ref w in
  while !w < nw && Array.unsafe_get a (ao + !w) = Array.unsafe_get b (bo + !w) do
    incr w
  done;
  !w < nw

let store t i acc =
  let nw = t.nw and o = off t i in
  differs acc 0 (page t i) o nw 0
  && begin
       blit_row acc 0 (own t i) o nw;
       true
     end

(* Whether any bit of [mask] is clear ([up]) or set in the row at [o]. *)
let movable mask m o nw ~up =
  let w = ref 0 in
  while !w < nw && (if up then Array.unsafe_get mask !w land lnot (Array.unsafe_get m (o + !w))
                    else Array.unsafe_get mask !w land Array.unsafe_get m (o + !w)) = 0 do
    incr w
  done;
  !w < nw

let lift t i mask ~up =
  let nw = t.nw and o = off t i in
  movable mask (page t i) o nw ~up
  && begin
       let m = own t i in
       for w = 0 to nw - 1 do
         m.(o + w) <- (if up then m.(o + w) lor mask.(w) else m.(o + w) land lnot mask.(w))
       done;
       true
     end

let seal t =
  if t.cow && t.spine != t.base then begin
    let nb = Array.length t.base and rpp = 1 lsl t.shift and nw = t.nw in
    let copied k = k >= nb || t.spine.(k) != t.base.(k) in
    let owned = ref 0 in
    for k = 0 to Array.length t.spine - 1 do
      if copied k then incr owned
    done;
    let changed = Arena.alloc_int t.work (max 1 (!owned * rpp)) in
    let n = ref 0 in
    for k = 0 to Array.length t.spine - 1 do
      if copied k then begin
        let p = t.spine.(k) and n0 = !n in
        for i = k * rpp to min t.count ((k + 1) * rpp) - 1 do
          let o = off t i in
          if i >= t.base_count || differs p o t.base.(k) o nw 0 then begin
            changed.(!n) <- i;
            incr n
          end
        done;
        if !n = n0 then t.spine.(k) <- t.base.(k)
      end
    done;
    if !n = 0 && Array.length t.spine = nb then t.spine <- t.base;
    t.changed <- changed;
    t.nchanged <- !n
  end;
  t.base <- t.spine;
  t.base_count <- t.count;
  t.cow <- false

let nchanged t = t.nchanged
let changed t j = t.changed.(j)

let to_bitvec t i n =
  check t i;
  Bitvec.of_words (page t i) ~off:(off t i) n

let of_rows n rows =
  let nw = Bitvec.words_for n in
  let t = create None ~nw ~count:(Array.length rows) (Array.make nw 0) in
  Array.iteri
    (fun i v ->
      if Bitvec.length v <> n then
        invalid_arg (Printf.sprintf "Rowtab.of_rows: row %d has %d bits, expected %d" i (Bitvec.length v) n);
      ignore (store t i (Bitvec.words v)))
    rows;
  t

let rec index_from row x i =
  if i >= Array.length row then -1 else if Array.unsafe_get row i = x then i else index_from row x (i + 1)

let index row x = index_from row x 0

type queue = {
  buf : int array;
  queued : Arena.stamps;
  cap : int;
  mutable head : int;
  mutable tail : int;
}

let queue work bound =
  let cap = bound + 1 in
  { buf = Arena.alloc_raw_int work cap; queued = Arena.alloc_stamps work (max 1 bound); cap; head = 0; tail = 0 }

let push q l =
  if not (Arena.is_set q.queued l) then begin
    Arena.set q.queued l;
    q.buf.(q.tail) <- l;
    q.tail <- (if q.tail + 1 = q.cap then 0 else q.tail + 1)
  end

let is_empty q = q.head = q.tail

let pop q =
  let l = q.buf.(q.head) in
  q.head <- (if q.head + 1 = q.cap then 0 else q.head + 1);
  Arena.clear q.queued l;
  l

type lifts = {
  stack : int array;
  on_stack : Arena.stamps;
  mutable nstack : int;
  mask : int array;
}

let lifts work bound nw =
  {
    stack = Arena.alloc_raw_int work (max 1 bound);
    on_stack = Arena.alloc_stamps work (max 1 bound);
    nstack = 0;
    mask = Arena.alloc_int work (max 1 nw);
  }

let note lf l =
  if not (Arena.is_set lf.on_stack l) then begin
    Arena.set lf.on_stack l;
    lf.stack.(lf.nstack) <- l;
    lf.nstack <- lf.nstack + 1
  end

let next_lifted lf =
  if lf.nstack = 0 then -1
  else begin
    lf.nstack <- lf.nstack - 1;
    let l = lf.stack.(lf.nstack) in
    Arena.clear lf.on_stack l;
    l
  end
