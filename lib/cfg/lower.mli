(** Lowering MiniImp abstract syntax into control-flow graphs.

    Nested expressions are flattened into single-operator instructions with
    fresh temporaries (so every computation is a [v := e] as the paper
    assumes), and structured control flow becomes explicit blocks and
    branches.  Branch conditions are always atoms after lowering.

    Lowering emits into the graph builder ({!Build}), like the Bril and
    CFG text readers: labels in the order blocks are opened (so dead ones
    leave gaps), instructions by variable number and operand code, and
    temporaries [_t0], [_t1], ... (the prefix extended by underscores past
    any parameter or read variable that starts with it).  The graph is
    born validated, with unreachable blocks pruned and its candidate pool,
    numbering and event memos filled. *)

(** The variable that receives [return] values; read at the exit block. *)
val return_var : string

(** Lower one function. *)
val func : Lcm_ir.Ast.func -> Cfg.t

(** [parse_and_lower_func src] is [func] of [Lcm_ir.Parser.parse_func],
    its builder sized from [src]'s length. *)
val parse_and_lower_func : string -> Cfg.t

(** Lower every function of a source string, by name in source order.
    Raises as {!Lcm_ir.Parser.parse_program}. *)
val parse_and_lower : string -> (string * Cfg.t) list
