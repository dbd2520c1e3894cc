(** Recursive-descent parser for MiniImp.

    Grammar (EBNF):
    {v
    program  ::= func+
    func     ::= "function" IDENT "(" [IDENT {"," IDENT}] ")" block
    block    ::= "{" stmt* "}"
    stmt     ::= IDENT "=" expr ";"
               | "if" "(" expr ")" block ["else" block]
               | "while" "(" expr ")" block
               | "do" block "while" "(" expr ")" ";"
               | "print" expr ";"
               | "return" expr ";"
    expr     ::= cmp
    cmp      ::= add {("<"|"<="|">"|">="|"=="|"!=") add}
    add      ::= mul {("+"|"-") mul}
    mul      ::= unary {("*"|"/"|"%") unary}
    unary    ::= ("-"|"!") unary | atom
    atom     ::= INT | IDENT | "(" expr ")"
    v}

    The parser pulls tokens from a {!Lexer} cursor as it goes, so no
    token list is built.  Errors are reported as if the whole source had
    been tokenized first: a {!Lexer.Lex_error} anywhere in the source
    takes precedence over a {!Parse_error} (on a syntax error the rest of
    the source is lexed before the error is raised), and a syntax error
    reports the offending token's line and column. *)

exception Parse_error of string * int * int
(** [Parse_error (message, line, col)]. *)

(** Parse a whole source string into a program.
    Raises {!Parse_error} or {!Lexer.Lex_error}, the latter first. *)
val parse_program : string -> Ast.program

(** Parse a source string containing a single function. *)
val parse_func : string -> Ast.func

(** Parse a bare expression (used by tests and the CLI). *)
val parse_expr : string -> Ast.expr
