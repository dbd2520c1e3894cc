type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of int * (Bytes.t -> int -> unit)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ---- printing ---- *)

(* Bytes that need no escape are copied a run at a time: program texts
   are long stretches of plain bytes between newlines. *)
let hex = "0123456789abcdef"

let escape_into buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  if n > !start then Buffer.add_substring buf s !start (n - !start)

(* The inverse of [escape_into] on its own output: an escape is a
   backslash and one byte, or [\u00XX]; everything else is itself.  Only
   the escapes change, so the unescaped string is written a run at a
   time, one blit per run between backslashes.  The scan is a plain loop,
   not [String.index_from]: its [Not_found] at the end of every short
   block text costs more than the scan. *)
let rec next_escape s i n = if i >= n || String.unsafe_get s i = '\\' then i else next_escape s (i + 1) n
let escape_width s j = if String.unsafe_get s (j + 1) = 'u' then 6 else 2

let unescaped_length s =
  let n = String.length s in
  let rec go i len =
    let j = next_escape s i n in
    if j >= n then len + (n - i) else go (j + escape_width s j) (len + (j - i) + 1)
  in
  go 0 0

let hex_value c = if c <= '9' then Char.code c - 48 else Char.code c - 87

let unescape_into s out pos =
  let n = String.length s in
  let rec go i o =
    let j = next_escape s i n in
    Bytes.blit_string s i out o (j - i);
    let o = o + (j - i) in
    if j >= n then o
    else begin
      Bytes.set out o
        (match s.[j + 1] with
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | 'u' -> Char.chr ((hex_value s.[j + 4] lsl 4) lor hex_value s.[j + 5])
        | c -> c);
      go (j + escape_width s j) (o + 1)
    end
  in
  go 0 pos

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* An estimate of the rendered size: every string at its length plus an
   eighth for escapes, every other node a few bytes, so a response
   carrying a program text fills its buffer without regrowing it. *)
let rec size_hint acc = function
  | Null | Bool _ | Int _ | Float _ -> acc + 8
  | Raw _ -> acc
  | String s -> acc + String.length s + (String.length s lsr 3) + 2
  | List xs -> List.fold_left size_hint (acc + 2) xs
  | Obj fields ->
    List.fold_left (fun acc (k, x) -> size_hint (acc + String.length k + 4) x) (acc + 2) fields

(* Everything but the [Raw] values is rendered into a buffer; each [Raw]
   leaves a hole at its position.  Without holes the buffer is the
   document.  With them, the document is one exact-size string: the
   buffer's stretches blitted between the holes, and each [Raw] written
   straight into its hole — a long already-encoded value is never copied
   through the buffer. *)
let to_string v =
  let buf = Buffer.create (size_hint 0 v) in
  let holes = ref [] and raw = ref 0 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
      else Buffer.add_string buf (float_to_string f)
    | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Raw (len, write) ->
      holes := (Buffer.length buf, len, write) :: !holes;
      raw := !raw + len
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          go x)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  match !holes with
  | [] -> Buffer.contents buf
  | holes ->
    let out = Bytes.create (Buffer.length buf + !raw) in
    let rec fill src dst = function
      | [] -> Buffer.blit buf src out dst (Buffer.length buf - src)
      | (at, len, write) :: rest ->
        Buffer.blit buf src out dst (at - src);
        let dst = dst + (at - src) in
        write out dst;
        fill at (dst + len) rest
    in
    fill 0 0 (List.rev holes);
    Bytes.unsafe_to_string out

(* ---- parsing ----

   One scanner, two readers.  The scanner is a pull cursor over the source
   string: [kind] peeks at the next value, [fields] and [items] walk an
   object's members and an array's elements, [string], [bool] and [int]
   read scalars, and [skip] steps over a whole value, checking its syntax
   but building nothing.  [parse] is the tree reader built on them; a
   reader that wants only a few members of a large document (the Bril
   frontend) walks the same cursor directly.  Because both readers share
   every primitive, a document the cursor rejects fails with the same
   message, at the same offset, as [parse] would report.

   The cursor works on indices: [peek] returns a plain [char] (no [Some]
   per character), string literals without escapes are copied with one
   [String.sub], and a literal with escapes is unescaped straight into a
   [Bytes] of its exact decoded length.  Every [unsafe_get] is guarded by
   an explicit bound check against [c.len]. *)

type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  (* The key of the member [fields] is visiting: a span of [src] when the
     key has no escapes ([key_len >= 0]), else decoded into [key_text]. *)
  mutable key_at : int;
  mutable key_len : int;
  mutable key_text : string;
  (* The string [string_span] consumed: [span_len] bytes of [span_src] at
     [span_at] — the source itself when the literal has no escapes. *)
  mutable span_src : string;
  mutable span_at : int;
  mutable span_len : int;
}

type kind =
  | K_null
  | K_bool
  | K_number
  | K_string
  | K_list
  | K_obj

let cursor s =
  { src = s; len = String.length s; pos = 0; key_at = 0; key_len = 0; key_text = ""; span_src = s; span_at = 0; span_len = 0 }

(* End-of-input sentinel for [peek].  A NUL byte in the input reads the
   same, so every branch that reports end of input checks [c.pos]. *)
let eof = '\000'

let[@inline] peek c = if c.pos < c.len then String.unsafe_get c.src c.pos else eof

let[@inline] advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < c.len
    &&
    match String.unsafe_get c.src c.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance c
  done

let expect c ch =
  if c.pos >= c.len then fail "expected %C at offset %d, found end of input" ch c.pos;
  let ch' = String.unsafe_get c.src c.pos in
  if ch' = ch then advance c else fail "expected %C at offset %d, found %C" ch c.pos ch'

let utf8_length code = if code < 0x80 then 1 else if code < 0x800 then 2 else if code < 0x10000 then 3 else 4

(* Write [code] as UTF-8 at [o]; returns the offset after it. *)
let put_utf8 out o code =
  if code < 0x80 then begin
    Bytes.set out o (Char.chr code);
    o + 1
  end
  else if code < 0x800 then begin
    Bytes.set out o (Char.chr (0xC0 lor (code lsr 6)));
    Bytes.set out (o + 1) (Char.chr (0x80 lor (code land 0x3F)));
    o + 2
  end
  else if code < 0x10000 then begin
    Bytes.set out o (Char.chr (0xE0 lor (code lsr 12)));
    Bytes.set out (o + 1) (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Bytes.set out (o + 2) (Char.chr (0x80 lor (code land 0x3F)));
    o + 3
  end
  else begin
    Bytes.set out o (Char.chr (0xF0 lor (code lsr 18)));
    Bytes.set out (o + 1) (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Bytes.set out (o + 2) (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Bytes.set out (o + 3) (Char.chr (0x80 lor (code land 0x3F)));
    o + 4
  end

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The code unit spelled by the four hex digits at [i], or -1 when they
   are missing or not all hex digits. *)
let rec hex_from c i k acc =
  if k = 4 then acc
  else
    let d = hex_digit (String.unsafe_get c.src (i + k)) in
    if d < 0 then -1 else hex_from c i (k + 1) ((acc lsl 4) lor d)

let hex4_at c i = if i + 4 > c.len then -1 else hex_from c i 0 0

(* The four hex digits of a [\u] escape at [c.pos]: exactly four, each a
   hex digit (no sign, no separator). *)
let parse_hex4 c =
  if c.pos + 4 > c.len then fail "truncated \\u escape";
  let code = hex4_at c c.pos in
  if code < 0 then fail "bad \\u escape %S" (String.sub c.src c.pos 4);
  c.pos <- c.pos + 4;
  code

let is_high code = code >= 0xD800 && code <= 0xDBFF
let is_low code = code >= 0xDC00 && code <= 0xDFFF

(* A [\u] escape, its backslash and [u] already consumed, written at [o].
   A high surrogate must be followed by a [\u]-escaped low surrogate; the
   pair decodes to one supplementary code point.  A lone surrogate of
   either kind is an error: it has no UTF-8 encoding. *)
let unicode_escape c out o =
  let at = c.pos - 2 in
  let hi = parse_hex4 c in
  if is_high hi then begin
    if
      c.pos + 1 < c.len
      && String.unsafe_get c.src c.pos = '\\'
      && String.unsafe_get c.src (c.pos + 1) = 'u'
    then begin
      c.pos <- c.pos + 2;
      let lo = parse_hex4 c in
      if is_low lo then put_utf8 out o (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
      else fail "lone high surrogate \\u%04X at offset %d" hi at
    end
    else fail "lone high surrogate \\u%04X at offset %d" hi at
  end
  else if is_low hi then fail "lone low surrogate \\u%04X at offset %d" hi at
  else put_utf8 out o hi

(* Index of the first ['"'] or ['\\'] at or after [i], or [c.len]. *)
let rec run_end c i =
  if i >= c.len then i
  else
    match String.unsafe_get c.src i with
    | '"' | '\\' -> i
    | _ -> run_end c (i + 1)

(* Decoded byte length of the literal body from [i] to its closing quote
   (or the end of input).  Exact for a valid literal.  An invalid escape
   is counted loosely: the decoder rejects it before writing it, and
   every byte before it is counted exactly, so the decoder never writes
   past the length computed here. *)
let rec decoded_length c i n =
  if i >= c.len then n
  else
    match String.unsafe_get c.src i with
    | '"' -> n
    | '\\' ->
      if i + 1 < c.len && String.unsafe_get c.src (i + 1) = 'u' then begin
        let code = hex4_at c (i + 2) in
        if is_high code then decoded_length c (i + 12) (n + 4)
        else decoded_length c (i + 6) (n + utf8_length (max code 0))
      end
      else decoded_length c (i + 2) (n + 1)
    | _ -> decoded_length c (i + 1) (n + 1)

(* The byte a one-character escape stands for; [eof] for [u] and for
   anything that is not an escape. *)
let simple_escape = function
  | '"' -> '"'
  | '\\' -> '\\'
  | '/' -> '/'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | _ -> eof

(* Unescape the literal body from [i] into [out] at [o] up to the closing
   quote; leaves the cursor after the quote and returns the number of
   bytes written.  The index is a local until the end (or a [\u] escape),
   so the loop keeps it in a register. *)
let rec unescape c i out o =
  if i >= c.len then fail "unterminated string";
  match String.unsafe_get c.src i with
  | '"' ->
    c.pos <- i + 1;
    o
  | '\\' ->
    let i = i + 1 in
    if i >= c.len then fail "unterminated escape";
    let e = String.unsafe_get c.src i in
    if e = 'u' then begin
      c.pos <- i + 1;
      let o = unicode_escape c out o in
      unescape c c.pos out o
    end
    else begin
      let ch = simple_escape e in
      if ch = eof then fail "bad escape \\%C" e;
      Bytes.set out o ch;
      unescape c (i + 1) out (o + 1)
    end
  | ch ->
    Bytes.set out o ch;
    unescape c (i + 1) out (o + 1)

(* The body of a string literal, its opening quote already consumed: one
   [String.sub] when it has no escapes, else one [Bytes] of the decoded
   length, filled in place. *)
let string_body c =
  let start = c.pos in
  let stop = run_end c start in
  if stop < c.len && String.unsafe_get c.src stop = '"' then begin
    c.pos <- stop + 1;
    String.sub c.src start (stop - start)
  end
  else begin
    let n = decoded_length c start 0 in
    let out = Bytes.create n in
    Bytes.blit_string c.src start out 0 (stop - start);
    let o = unescape c stop out (stop - start) in
    if o = n then Bytes.unsafe_to_string out else Bytes.sub_string out 0 o
  end

(* Step over a string body without building it when it has no escapes;
   with escapes, decode it, so that every error matches [string_body]. *)
let skip_string_body c =
  let stop = run_end c c.pos in
  if stop < c.len && String.unsafe_get c.src stop = '"' then c.pos <- stop + 1
  else ignore (string_body c)

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let kind c =
  skip_ws c;
  if c.pos >= c.len then fail "empty input";
  match String.unsafe_get c.src c.pos with
  | '"' -> K_string
  | '{' -> K_obj
  | '[' -> K_list
  | 't' | 'f' -> K_bool
  | 'n' -> K_null
  | ch when is_number_char ch -> K_number
  | ch -> fail "unexpected character %C at offset %d" ch c.pos

let string c =
  skip_ws c;
  expect c '"';
  string_body c

(* A literal without escapes is left where it is; one with escapes is
   decoded as [string] decodes it. *)
let string_span c =
  skip_ws c;
  expect c '"';
  let start = c.pos in
  let stop = run_end c start in
  if stop < c.len && String.unsafe_get c.src stop = '"' then begin
    c.pos <- stop + 1;
    c.span_src <- c.src;
    c.span_at <- start;
    c.span_len <- stop - start
  end
  else begin
    let s = string_body c in
    c.span_src <- s;
    c.span_at <- 0;
    c.span_len <- String.length s
  end

let source c = c.src
let position c = c.pos
let set_position c pos = c.pos <- pos
let span_src c = c.span_src
let span_at c = c.span_at
let span_len c = c.span_len

(* [n] bytes of [src] at [i] equal [s] at [j]. *)
let rec same_bytes src i s j n =
  n = 0 || (String.unsafe_get src i = String.unsafe_get s j && same_bytes src (i + 1) s (j + 1) (n - 1))

let span_is c s =
  c.span_len = String.length s && same_bytes c.span_src c.span_at s 0 c.span_len

let span_string c = String.sub c.span_src c.span_at c.span_len

let literal c word =
  let n = String.length word in
  if c.pos + n <= c.len && same_bytes c.src c.pos word 0 n then c.pos <- c.pos + n
  else fail "bad literal at offset %d" c.pos

let bool c =
  match kind c with
  | K_bool when String.unsafe_get c.src c.pos = 't' ->
    literal c "true";
    true
  | _ ->
    literal c "false";
    false

(* The text of the number at [c.pos], and its value. *)
let number_text c =
  let start = c.pos in
  while c.pos < c.len && is_number_char (String.unsafe_get c.src c.pos) do
    advance c
  done;
  String.sub c.src start (c.pos - start)

let number_of_text s =
  match int_of_string_opt s with
  | Some n -> Int n
  | None ->
    (match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S" s)

let number c =
  ignore (kind c);
  number_of_text (number_text c)

let int c =
  match number c with
  | Int n -> Some n
  | _ -> None

(* The key of the member starting at [c.pos] (its opening quote not yet
   consumed): recorded as a span of the source when it has no escapes. *)
let scan_key c =
  expect c '"';
  let start = c.pos in
  let stop = run_end c start in
  if stop < c.len && String.unsafe_get c.src stop = '"' then begin
    c.key_at <- start;
    c.key_len <- stop - start;
    c.pos <- stop + 1
  end
  else begin
    c.key_text <- string_body c;
    c.key_len <- -1
  end

let key c = if c.key_len >= 0 then String.sub c.src c.key_at c.key_len else c.key_text

let key_is c k =
  if c.key_len < 0 then String.equal c.key_text k
  else
    c.key_len = String.length k && same_bytes c.src c.key_at k 0 c.key_len

(* [fields] and [items] fold over the members and elements: a reader
   threads its state through [acc], so a callback needs no free variables
   and is not allocated per call. *)
let rec members c f acc =
  skip_ws c;
  scan_key c;
  skip_ws c;
  expect c ':';
  let acc = f acc c in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    members c f acc
  | '}' ->
    advance c;
    acc
  | _ -> fail "expected ',' or '}' at offset %d" c.pos

let fields c f acc =
  skip_ws c;
  expect c '{';
  skip_ws c;
  if peek c = '}' then begin
    advance c;
    acc
  end
  else members c f acc

let rec elements c f acc =
  let acc = f acc c in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    elements c f acc
  | ']' ->
    advance c;
    acc
  | _ -> fail "expected ',' or ']' at offset %d" c.pos

let items c f acc =
  skip_ws c;
  expect c '[';
  skip_ws c;
  if peek c = ']' then begin
    advance c;
    acc
  end
  else elements c f acc

let skip_number c = ignore (number_of_text (number_text c))

let rec skip c =
  match kind c with
  | K_string ->
    advance c;
    skip_string_body c
  | K_obj -> fields c skip_one ()
  | K_list -> items c skip_one ()
  | K_bool -> ignore (bool c)
  | K_null -> literal c "null"
  | K_number -> skip_number c

and skip_one () c = skip c

let finish c =
  skip_ws c;
  if c.pos <> c.len then fail "trailing content at offset %d" c.pos

(* The tree reader. *)
let rec value c =
  match kind c with
  | K_string -> String (string c)
  | K_obj -> Obj (List.rev (fields c member []))
  | K_list -> List (List.rev (items c element []))
  | K_bool -> Bool (bool c)
  | K_null ->
    literal c "null";
    Null
  | K_number -> number c

and member acc c =
  let k = key c in
  (k, value c) :: acc

and element acc c = value c :: acc

let parse s =
  let c = cursor s in
  let v = value c in
  finish c;
  v

(* ---- accessors ---- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function
  | String s -> Some s
  | _ -> None

let to_bool_opt = function
  | Bool b -> Some b
  | _ -> None
