(** Fresh temporary names for inserted computations.

    The paper writes [h] for the temporary that carries an expression's
    value; we allocate one such name per candidate expression, guaranteed
    not to collide with any variable of the graph. *)

(** [names g pool] maps each expression index to a fresh variable name.
    The array may be shared with other calls: read-only. *)
val names : Lcm_cfg.Cfg.t -> Lcm_ir.Expr_pool.t -> string array

(** [ranked prefix rank] names expression index [i] [prefix ^ rank.(i)]
    (the empty string where [rank.(i) < 0]): the names a pool numbered in
    first-occurrence order gives the expression of each rank, for a pool
    whose indices are not in that order.  [prefix] is
    {!Lcm_cfg.Cfg.temp_prefix} of the graph. *)
val ranked : string -> int array -> string array
