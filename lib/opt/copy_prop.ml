module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Solver = Lcm_dataflow.Solver
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

type stats = { uses_rewritten : int }

(* The fact universe: one bit per distinct copy (target, source) pair
   occurring in the program. *)
type facts = {
  index : (string * string, int) Hashtbl.t;
  pairs : (string * string) array;
}

let collect_facts g =
  let index = Hashtbl.create 32 in
  let pairs = ref [] in
  let note v w =
    if (not (String.equal v w)) && not (Hashtbl.mem index (v, w)) then begin
      Hashtbl.add index (v, w) (Hashtbl.length index);
      pairs := (v, w) :: !pairs
    end
  in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          match i with
          | Instr.Assign (v, Expr.Atom (Expr.Var w)) -> note v w
          | Instr.Assign _ | Instr.Print _ | Instr.Effect _ -> ())
        (Cfg.instrs g l))
    (Cfg.labels g);
  { index; pairs = Array.of_list (List.rev !pairs) }

(* Facts invalidated by defining [v]: all pairs mentioning [v]. *)
let killed_by facts v =
  let acc = ref [] in
  Array.iteri
    (fun i (a, b) -> if String.equal a v || String.equal b v then acc := i :: !acc)
    facts.pairs;
  !acc

(* The block's GEN/KEEP rows: facts established by its copies, and facts
   no definition in it invalidates. *)
let block_transfer g facts l =
  let n = Array.length facts.pairs in
  let gen = Bitvec.create n and keep = Bitvec.create_full n in
  List.iter
    (fun i ->
      (match Instr.defs i with
      | Some v ->
        List.iter
          (fun idx ->
            Bitvec.set keep idx false;
            Bitvec.set gen idx false)
          (killed_by facts v)
      | None -> ());
      match i with
      | Instr.Assign (v, Expr.Atom (Expr.Var w)) when not (String.equal v w) ->
        Bitvec.set gen (Hashtbl.find facts.index (v, w)) true
      | Instr.Assign _ | Instr.Print _ | Instr.Effect _ -> ())
    (Cfg.instrs g l);
  (gen, keep)

(* Map view of a fact set: target variable to (transitively resolved)
   source. *)
let map_of_set facts set =
  let tbl = Hashtbl.create 16 in
  Bitvec.iter_true
    (fun i ->
      let v, w = facts.pairs.(i) in
      Hashtbl.replace tbl v w)
    set;
  tbl

let rec resolve tbl seen v =
  match Hashtbl.find_opt tbl v with
  | Some w when not (List.mem w seen) -> resolve tbl (v :: seen) w
  | Some _ | None -> v

let run g =
  let g = Cfg.copy g in
  let facts = collect_facts g in
  let n = Array.length facts.pairs in
  let rewritten = ref 0 in
  if n > 0 then begin
    let bound = Cfg.label_bound g in
    let gen = Array.make bound (Bitvec.create n) and keep = Array.make bound (Bitvec.create n) in
    List.iter
      (fun l ->
        let gl, kl = block_transfer g facts l in
        gen.(l) <- gl;
        keep.(l) <- kl)
      (Cfg.labels g);
    let solution =
      Solver.run g
        {
          Solver.nbits = n;
          direction = Solver.Forward;
          confluence = Solver.Inter;
          boundary = Bitvec.create n;
          gen = Lcm_support.Rowtab.of_rows n gen;
          keep = Lcm_support.Rowtab.of_rows n keep;
        }
    in
    List.iter
      (fun l ->
        let tbl = map_of_set facts (solution.Solver.block_in l) in
        let subst v =
          let v' = resolve tbl [] v in
          if not (String.equal v' v) then incr rewritten;
          v'
        in
        let subst_operand = function
          | Expr.Var v -> Expr.Var (subst v)
          | Expr.Const _ as c -> c
        in
        let subst_expr = function
          | Expr.Atom a -> Expr.Atom (subst_operand a)
          | Expr.Unary (op, a) -> Expr.Unary (op, subst_operand a)
          | Expr.Binary (op, a, b) -> Expr.Binary (op, subst_operand a, subst_operand b)
        in
        let step i =
          let i' =
            match i with
            | Instr.Assign (v, e) -> Instr.Assign (v, subst_expr e)
            | Instr.Print a -> Instr.Print (subst_operand a)
            | Instr.Effect e ->
              (* Effect operands are plain reads: copies propagate into
                 them like any other use (Bril registers are value-typed,
                 so no effect can alias another register). *)
              Instr.Effect { e with Instr.eff_args = List.map subst_operand e.Instr.eff_args }
          in
          (* Update the local view: a definition invalidates facts, a copy
             introduces one. *)
          (match Instr.defs i' with
          | Some v ->
            let stale = Hashtbl.fold (fun a b acc -> if String.equal a v || String.equal b v then a :: acc else acc) tbl [] in
            List.iter (Hashtbl.remove tbl) stale
          | None -> ());
          (match i' with
          | Instr.Assign (v, Expr.Atom (Expr.Var w)) when not (String.equal v w) -> Hashtbl.replace tbl v w
          | Instr.Assign _ | Instr.Print _ | Instr.Effect _ -> ());
          i'
        in
        let instrs' = List.map step (Cfg.instrs g l) in
        Cfg.set_instrs g l instrs';
        match Cfg.term g l with
        | Cfg.Branch (Expr.Var v, a, b) ->
          let v' = resolve tbl [] v in
          if not (String.equal v' v) then begin
            incr rewritten;
            Cfg.set_term g l (Cfg.Branch (Expr.Var v', a, b))
          end
        | Cfg.Branch (Expr.Const _, _, _) | Cfg.Goto _ | Cfg.Halt -> ())
      (Cfg.labels g)
  end;
  (g, { uses_rewritten = !rewritten })

let pass =
  Lcm_core.Pass.v "copy-prop" (fun _ctx g ->
      let g', s = run g in
      (g', Lcm_core.Pass.report ~notes:[ ("uses_rewritten", string_of_int s.uses_rewritten) ] ()))
