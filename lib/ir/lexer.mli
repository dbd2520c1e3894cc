(** Hand-written lexer for MiniImp source text: a pull cursor.

    The cursor holds one token at a time — its kind, position, span and
    integer value are fields of one record — and {!advance} overwrites
    them with the next token's.  Reading a source allocates nothing per
    token: an identifier's text is taken from its span only when asked
    for ({!ident}), and keywords are recognised in place.  Comments run
    from [//] to end of line. *)

type token =
  | INT
  | IDENT
  | KW_FUNCTION
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_PRINT
  | KW_RETURN
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN  (** [=] *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | LT
  | LE
  | GT
  | GE
  | EQ  (** [==] *)
  | NE
  | BANG
  | EOF

(** The cursor.  [token] is the current token, at 1-based [line] and
    [col], spelt by the [len] bytes of [src] at [start]; [value] is an
    [INT]'s value.  Scanning resumes at byte [pos], which is at
    [pos_line], [pos_col]. *)
type t = private {
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
(** [Lex_error (message, line, col)]. *)

(** A cursor on the first token of a source string.  Raises {!Lex_error}
    on an unexpected character or an integer literal beyond [max_int]. *)
val create : string -> t

(** Move to the next token; raises {!Lex_error} as {!create}.  At the end
    of the source the token is [EOF] at the position after the last byte;
    advancing past [EOF] leaves [EOF] at line 0, column 0. *)
val advance : t -> unit

(** Advance to [EOF], raising the first {!Lex_error} of the rest of the
    source, if any.  A parser calls it before reporting a syntax error, so
    that a lex error anywhere in the source takes precedence. *)
val drain : t -> unit

(** The current [IDENT]'s text (a fresh string). *)
val ident : t -> string

(** The current token as an error message shows it: an integer's value,
    an identifier's or keyword's or operator's text, [<eof>]. *)
val describe : t -> string
