(* Bit vectors stored as an array of native ints, using every bit of the
   int (63 on 64-bit systems).  The last word keeps its unused high bits at
   zero so that [equal], [is_empty], [count] and [subset] can work
   word-wise without masking.

   The storage array may be *longer* than the vector needs: [of_buffer]
   wraps a pooled buffer whose capacity was rounded up to a size bucket
   (see Arena), so near-miss widths share buffers.  Every operation
   therefore iterates [nwords v] — the words the length actually spans —
   never [Array.length v.words]; words past [nwords] are dead storage with
   unspecified contents. *)

let bits_per_word = Sys.int_size

type t = { mutable len : int; words : int array }

let word_count len = (len + bits_per_word - 1) / bits_per_word
let words_for = word_count
let[@inline] nwords v = word_count v.len

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (word_count len) 0 }

(* Mask of valid bits in the last word. *)
let last_mask len =
  let r = len mod bits_per_word in
  if r = 0 then -1 lsr (Sys.int_size - bits_per_word) else (1 lsl r) - 1

let normalize v =
  if v.len > 0 then begin
    let last = nwords v - 1 in
    v.words.(last) <- v.words.(last) land last_mask v.len
  end

(* A plain loop rather than [Array.fill]: rows are a handful of words, and
   the arena re-initializes whole tables of them per request, where the
   C call's fixed cost would dominate. *)
let fill v b =
  let x = if b then -1 else 0 and ws = v.words in
  for w = 0 to nwords v - 1 do
    Array.unsafe_set ws w x
  done;
  if b then normalize v

let create_full len =
  let v = create len in
  fill v true;
  v

(* Wrap [buf] (capacity >= [words_for len]) as a [len]-bit vector.  The
   used prefix is explicitly cleared (or set, for [of_buffer_full]): a
   recycled buffer must never leak the previous checkout's bits — the
   arena property tests assert exactly this. *)
let of_buffer buf len =
  if len < 0 then invalid_arg "Bitvec.of_buffer: negative length";
  if Array.length buf < word_count len then
    invalid_arg
      (Printf.sprintf "Bitvec.of_buffer: buffer of %d words cannot hold %d bits" (Array.length buf)
         len);
  let v = { len; words = buf } in
  fill v false;
  v

let of_buffer_full buf len =
  let v = of_buffer buf len in
  fill v true;
  v

(* Rebind an existing vector to [len] bits over its own (possibly wider)
   buffer, clearing the used prefix.  This is what lets the arena recycle
   whole [t] records: a steady-state checkout re-initializes a parked view
   in place and allocates nothing at all. *)
let rebind v len name =
  if len < 0 then invalid_arg (Printf.sprintf "Bitvec.%s: negative length" name);
  if Array.length v.words < word_count len then
    invalid_arg
      (Printf.sprintf "Bitvec.%s: buffer of %d words cannot hold %d bits" name
         (Array.length v.words) len);
  v.len <- len

let reinit v len =
  rebind v len "reinit";
  fill v false

let reinit_full v len =
  rebind v len "reinit_full";
  fill v true

let words v = v.words

let of_words src ~off len =
  if len < 0 then invalid_arg "Bitvec.of_words: negative length";
  { len; words = Array.sub src off (word_count len) }

let length v = v.len

let check v i name =
  if i < 0 || i >= v.len then invalid_arg (Printf.sprintf "Bitvec.%s: index %d out of [0,%d)" name i v.len)

let get v i =
  check v i "get";
  v.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set v i b =
  check v i "set";
  let w = i / bits_per_word and m = 1 lsl (i mod bits_per_word) in
  if b then v.words.(w) <- v.words.(w) lor m else v.words.(w) <- v.words.(w) land lnot m

let copy v = { len = v.len; words = Array.sub v.words 0 (nwords v) }

let same_length a b name =
  if a.len <> b.len then invalid_arg (Printf.sprintf "Bitvec.%s: lengths %d and %d differ" name a.len b.len)

let blit ~src ~dst =
  same_length src dst "blit";
  let changed = ref false in
  for w = 0 to nwords src - 1 do
    if dst.words.(w) <> src.words.(w) then begin
      dst.words.(w) <- src.words.(w);
      changed := true
    end
  done;
  !changed

(* Top-level recursions: a [let rec] nested inside the function would
   capture the vector and allocate a closure per call — these run once per
   edge/visit on the hot path, so they must stay allocation-free. *)
let rec words_equal_from aw bw w =
  w < 0 || (Array.unsafe_get aw w = Array.unsafe_get bw w && words_equal_from aw bw (w - 1))

let equal a b =
  same_length a b "equal";
  words_equal_from a.words b.words (nwords a - 1)

let rec words_zero_from ws w = w < 0 || (Array.unsafe_get ws w = 0 && words_zero_from ws (w - 1))
let is_empty v = words_zero_from v.words (nwords v - 1)

let popcount =
  (* Kernighan's loop is fast enough for our word counts. *)
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  fun n -> go n 0

let count v =
  let acc = ref 0 in
  for w = 0 to nwords v - 1 do
    acc := !acc + popcount v.words.(w)
  done;
  !acc

let inplace op ~into v name =
  same_length into v name;
  let changed = ref false in
  for w = 0 to nwords into - 1 do
    let x = op into.words.(w) v.words.(w) in
    if x <> into.words.(w) then begin
      into.words.(w) <- x;
      changed := true
    end
  done;
  !changed

let union_into ~into v = inplace ( lor ) ~into v "union_into"
let inter_into ~into v = inplace ( land ) ~into v "inter_into"
let diff_into ~into v = inplace (fun a b -> a land lnot b) ~into v "diff_into"

let union a b =
  let r = copy a in
  ignore (union_into ~into:r b);
  r

let inter a b =
  let r = copy a in
  ignore (inter_into ~into:r b);
  r

let diff a b =
  let r = copy a in
  ignore (diff_into ~into:r b);
  r

let complement v =
  let r = create v.len in
  for w = 0 to nwords v - 1 do
    r.words.(w) <- lnot v.words.(w)
  done;
  normalize r;
  r

let rec words_subset_from aw bw w =
  w < 0 || (Array.unsafe_get aw w land lnot (Array.unsafe_get bw w) = 0 && words_subset_from aw bw (w - 1))

let subset a b =
  same_length a b "subset";
  words_subset_from a.words b.words (nwords a - 1)

(* Number of trailing zeros of a non-zero word (branchy binary search; no
   hardware ctz is exposed for native ints). *)
let ntz x =
  let x = ref (x land -x) and n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Word-skipping: zero words cost one comparison, and within a word each set
   bit is extracted by lowest-set-bit stripping instead of testing every
   position.  The unused high bits of the last word are zero by invariant,
   so no length masking is needed. *)
let iter_true f v =
  for wi = 0 to nwords v - 1 do
    let w = ref v.words.(wi) in
    if !w <> 0 then begin
      let base = wi * bits_per_word in
      while !w <> 0 do
        f (base + ntz !w);
        w := !w land (!w - 1)
      done
    end
  done

let fold_true f v acc =
  let r = ref acc in
  iter_true (fun i -> r := f i !r) v;
  !r

let to_list v = List.rev (fold_true (fun i acc -> i :: acc) v [])

let of_list n is =
  let v = create n in
  List.iter (fun i -> set v i true) is;
  v

let pp ppf v =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Format.pp_print_int) (to_list v)
