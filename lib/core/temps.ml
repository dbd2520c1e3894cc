module Cfg = Lcm_cfg.Cfg
module Expr_pool = Lcm_ir.Expr_pool

(* [Cfg.temp_prefix] folds the blocks' memoised prefix runs, so only
   blocks never summarised before walk their variables. *)
let names g pool =
  let prefix = Cfg.temp_prefix g in
  Array.init (Expr_pool.size pool) (fun i -> prefix ^ string_of_int i)
