type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ---- printing ---- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string v =
  let buf = Buffer.create 256 in
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
  Buffer.contents buf

(* ---- parsing ----

   The scanner works on indices into the source string: [peek] returns a
   plain [char] (no [Some] per character), and string bodies are copied a
   run at a time — one [String.sub] when the literal has no escapes, else
   one [Buffer.add_substring] per run between escapes into a buffer sized
   for the whole literal.  Every [unsafe_get] is guarded by an explicit
   bound check against [st.len]. *)

type state = {
  src : string;
  len : int;
  mutable pos : int;
}

(* End-of-input sentinel for [peek].  A NUL byte in the input reads the
   same, so every branch that reports end of input checks [st.pos]. *)
let eof = '\000'

let[@inline] peek st = if st.pos < st.len then String.unsafe_get st.src st.pos else eof

let[@inline] advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < st.len
    &&
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance st
  done

let expect st c =
  if st.pos >= st.len then fail "expected %C at offset %d, found end of input" c st.pos;
  let c' = String.unsafe_get st.src st.pos in
  if c' = c then advance st else fail "expected %C at offset %d, found %C" c st.pos c'

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The four hex digits of a [\u] escape at [st.pos]: exactly four, each a
   hex digit (no sign, no separator). *)
let parse_hex4 st =
  if st.pos + 4 > st.len then fail "truncated \\u escape";
  let code = ref 0 in
  for k = 0 to 3 do
    let d = hex_digit (String.unsafe_get st.src (st.pos + k)) in
    if d < 0 then fail "bad \\u escape %S" (String.sub st.src st.pos 4);
    code := (!code lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !code

(* A [\u] escape, its backslash and [u] already consumed.  A high
   surrogate must be followed by a [\u]-escaped low surrogate; the pair
   decodes to one supplementary code point.  A lone surrogate of either
   kind is an error: it has no UTF-8 encoding. *)
let parse_unicode_escape st buf =
  let at = st.pos - 2 in
  let hi = parse_hex4 st in
  if hi >= 0xD800 && hi <= 0xDBFF then begin
    if
      st.pos + 1 < st.len
      && String.unsafe_get st.src st.pos = '\\'
      && String.unsafe_get st.src (st.pos + 1) = 'u'
    then begin
      st.pos <- st.pos + 2;
      let lo = parse_hex4 st in
      if lo >= 0xDC00 && lo <= 0xDFFF then
        add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
      else fail "lone high surrogate \\u%04X at offset %d" hi at
    end
    else fail "lone high surrogate \\u%04X at offset %d" hi at
  end
  else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate \\u%04X at offset %d" hi at
  else add_utf8 buf hi

(* Index of the first ['"'] or ['\\'] at or after [i], or [st.len]. *)
let rec run_end st i =
  if i >= st.len then i
  else
    match String.unsafe_get st.src i with
    | '"' | '\\' -> i
    | _ -> run_end st (i + 1)

(* Index of the closing quote of the literal starting at [i] (escapes
   skipped), or [st.len] when it is unterminated. *)
let rec literal_end st i =
  if i >= st.len then st.len
  else
    match String.unsafe_get st.src i with
    | '"' -> i
    | '\\' -> literal_end st (i + 2)
    | _ -> literal_end st (i + 1)

(* Decode runs and escapes from [st.pos] until the closing quote. *)
let rec decode_into st buf =
  let stop = run_end st st.pos in
  Buffer.add_substring buf st.src st.pos (stop - st.pos);
  st.pos <- stop;
  if stop >= st.len then fail "unterminated string";
  if String.unsafe_get st.src stop = '"' then advance st
  else begin
    advance st;
    if st.pos >= st.len then fail "unterminated escape";
    let c = String.unsafe_get st.src st.pos in
    advance st;
    (match c with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' -> parse_unicode_escape st buf
    | c -> fail "bad escape \\%C" c);
    decode_into st buf
  end

(* The body of a string literal, its opening quote already consumed.  An
   escape is never shorter than what it decodes to, so the literal's byte
   length bounds the buffer and it is never regrown. *)
let parse_string_body st =
  let start = st.pos in
  let stop = run_end st start in
  if stop < st.len && String.unsafe_get st.src stop = '"' then begin
    st.pos <- stop + 1;
    String.sub st.src start (stop - start)
  end
  else begin
    let buf = Buffer.create (literal_end st start - start) in
    decode_into st buf;
    Buffer.contents buf
  end

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number st =
  let start = st.pos in
  while st.pos < st.len && is_number_char (String.unsafe_get st.src st.pos) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None ->
    (match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S" s)

let parse_literal st word v =
  let n = String.length word in
  let rec matches k = k >= n || (String.unsafe_get st.src (st.pos + k) = word.[k] && matches (k + 1)) in
  if st.pos + n <= st.len && matches 0 then begin
    st.pos <- st.pos + n;
    v
  end
  else fail "bad literal at offset %d" st.pos

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.len then fail "empty input";
  match String.unsafe_get st.src st.pos with
  | '"' ->
    advance st;
    String (parse_string_body st)
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        expect st '"';
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | ',' ->
          advance st;
          fields ((k, v) :: acc)
        | '}' ->
          advance st;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      fields []
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | ',' ->
          advance st;
          elements (v :: acc)
        | ']' ->
          advance st;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      elements []
    end
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | c when is_number_char c -> parse_number st
  | c -> fail "unexpected character %C at offset %d" c st.pos

let parse s =
  let st = { src = s; len = String.length s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> st.len then fail "trailing content at offset %d" st.pos;
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
