type token =
  | INT | IDENT | KW_FUNCTION | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_PRINT | KW_RETURN
  | LPAREN | RPAREN | LBRACE | RBRACE | COMMA | SEMI | ASSIGN | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE | BANG | EOF

type t = {
  src : string;
  mutable pos : int;
  mutable pos_line : int;
  mutable pos_col : int;
  mutable token : token;
  mutable line : int;
  mutable col : int;
  mutable start : int;
  mutable len : int;
  mutable value : int;
}

exception Lex_error of string * int * int

let rec same s pos kw j = j = String.length kw || (String.unsafe_get s (pos + j) = String.unsafe_get kw j && same s pos kw (j + 1))
let is s pos len kw = len = String.length kw && same s pos kw 0

(* The keyword spelt by [s] at [pos, pos + len), or [IDENT]. *)
let keyword s pos len =
  match String.unsafe_get s pos with
  | 'f' when is s pos len "function" -> KW_FUNCTION
  | 'i' when is s pos len "if" -> KW_IF
  | 'e' when is s pos len "else" -> KW_ELSE
  | 'w' when is s pos len "while" -> KW_WHILE
  | 'd' when is s pos len "do" -> KW_DO
  | 'p' when is s pos len "print" -> KW_PRINT
  | 'r' when is s pos len "return" -> KW_RETURN
  | _ -> IDENT

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c
let set c tok len = c.token <- tok; c.len <- len

let rec line_end s i = if i = String.length s || String.unsafe_get s i = '\n' then i else line_end s (i + 1)

(* Whitespace and comments, counting lines and columns byte by byte. *)
let rec skip c =
  if c.pos < String.length c.src then
    match String.unsafe_get c.src c.pos with
    | ' ' | '\t' | '\r' ->
      c.pos <- c.pos + 1;
      c.pos_col <- c.pos_col + 1;
      skip c
    | '\n' ->
      c.pos <- c.pos + 1;
      c.pos_line <- c.pos_line + 1;
      c.pos_col <- 1;
      skip c
    | '/' when c.pos + 1 < String.length c.src && String.unsafe_get c.src (c.pos + 1) = '/' ->
      let stop = line_end c.src c.pos in
      c.pos_col <- c.pos_col + stop - c.pos;
      c.pos <- stop;
      skip c
    | _ -> ()

(* A literal is scanned to its last digit before it is found too large,
   so the message shows all of it. *)
let number c =
  let s = c.src in
  let i = ref c.pos and v = ref 0 and over = ref false in
  while !i < String.length s && is_digit (String.unsafe_get s !i) do
    let d = Char.code (String.unsafe_get s !i) - 48 in
    if !v > (max_int - d) / 10 then over := true else v := (10 * !v) + d;
    incr i
  done;
  if !over then
    raise (Lex_error (Printf.sprintf "integer literal %s too large" (String.sub s c.pos (!i - c.pos)), c.line, c.col));
  c.value <- !v;
  set c INT (!i - c.pos)

let word c =
  let s = c.src in
  let i = ref (c.pos + 1) in
  while !i < String.length s && is_ident_char (String.unsafe_get s !i) do
    incr i
  done;
  set c (keyword s c.pos (!i - c.pos)) (!i - c.pos)

let advance c =
  if c.token = EOF then begin
    (* past the end, as an exhausted token list would peek *)
    c.line <- 0;
    c.col <- 0
  end
  else begin
    skip c;
    c.line <- c.pos_line;
    c.col <- c.pos_col;
    c.start <- c.pos;
    let s = c.src in
    if c.pos = String.length s then set c EOF 0
    else begin
      let eq = c.pos + 1 < String.length s && String.unsafe_get s (c.pos + 1) = '=' in
      (match String.unsafe_get s c.pos with
      | '0' .. '9' -> number c
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> word c
      | '(' -> set c LPAREN 1
      | ')' -> set c RPAREN 1
      | '{' -> set c LBRACE 1
      | '}' -> set c RBRACE 1
      | ',' -> set c COMMA 1
      | ';' -> set c SEMI 1
      | '+' -> set c PLUS 1
      | '-' -> set c MINUS 1
      | '*' -> set c STAR 1
      | '/' -> set c SLASH 1
      | '%' -> set c PERCENT 1
      | '<' -> if eq then set c LE 2 else set c LT 1
      | '>' -> if eq then set c GE 2 else set c GT 1
      | '=' -> if eq then set c EQ 2 else set c ASSIGN 1
      | '!' -> if eq then set c NE 2 else set c BANG 1
      | ch -> raise (Lex_error (Printf.sprintf "unexpected character %C" ch, c.line, c.col)));
      c.pos <- c.pos + c.len;
      c.pos_col <- c.pos_col + c.len
    end
  end

let create src =
  let c = { src; pos = 0; pos_line = 1; pos_col = 1; token = SEMI; line = 1; col = 1; start = 0; len = 0; value = 0 } in
  advance c;
  c

let rec drain c =
  if c.token <> EOF then begin
    advance c;
    drain c
  end

let ident c = String.sub c.src c.start c.len

let describe c =
  match c.token with
  | INT -> string_of_int c.value
  | EOF -> "<eof>"
  | _ -> String.sub c.src c.start c.len
