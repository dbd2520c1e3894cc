module Cfg = Lcm_cfg.Cfg
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool
module Instr = Lcm_ir.Instr

let seed = "_h"

(* [Fresh.prefix ~existing:(Cfg.all_vars g) seed] without building the
   sorted variable list: every variable occurrence is passed to the
   prefix rule, duplicates included, which does not change its result. *)
let prefix g =
  Lcm_support.Fresh.prefix_iter
    (fun note ->
      let operand = function
        | Expr.Var v -> note v
        | Expr.Const _ -> ()
      in
      let instr = function
        | Instr.Assign (v, e) ->
          note v;
          (match e with
          | Expr.Atom a | Expr.Unary (_, a) -> operand a
          | Expr.Binary (_, a, b) ->
            operand a;
            operand b)
        | Instr.Print a -> operand a
        | Instr.Effect e ->
          (match e.Instr.eff_dest with
          | Some (v, _) -> note v
          | None -> ());
          List.iter operand e.Instr.eff_args
      in
      List.iter
        (fun l ->
          List.iter instr (Cfg.instrs g l);
          match Cfg.term g l with
          | Cfg.Branch (a, _, _) -> operand a
          | Cfg.Goto _ | Cfg.Halt -> ())
        (Cfg.labels g))
    seed

let names g pool =
  let prefix = prefix g in
  Array.init (Expr_pool.size pool) (fun i -> prefix ^ string_of_int i)
