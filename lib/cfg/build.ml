module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

(* Blocks are kept by label in growable arrays.  The started block is
   filled through two reused buffers — its instructions and its events —
   and written out when the next block starts (or at [finish]): a reader
   fills one block at a time, so only the largest block is ever buffered,
   and the one list and one event array a block keeps are built once, at
   their final size. *)
type t = {
  vars : Vars.t;
  mutable instrs : Instr.t list array;
  mutable terms : Cfg.terminator array;
  mutable events : int array array;
  mutable next : int;
  mutable current : int;  (* -1: none *)
  mutable buf : Instr.t array;
  mutable nbuf : int;
  mutable ev : int array;
  mutable nev : int;
}

let nothing = Instr.Print (Expr.Const 0)

let create ?(blocks = 64) ?vars () =
  let blocks = max 64 blocks in
  {
    vars = Vars.create ?size:vars ();
    instrs = Array.make blocks [];
    terms = Array.init blocks (fun l -> if l = 0 then Cfg.Goto 1 else Cfg.Halt);
    events = Array.make blocks [| 0 |];
    next = 2;
    current = -1;
    buf = Array.make 64 nothing;
    nbuf = 0;
    ev = Array.make 64 0;
    nev = 0;
  }

let vars b = b.vars
let var b s pos len = Vars.intern_sub b.vars s pos len
let var_of_name b name = Vars.intern b.vars name
let var_name b v = Vars.name b.vars v
let const b n = Vars.const_code b.vars n
let operand b code = Vars.code_operand b.vars code
let entry = 0
let exit_label = 1

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let new_block b =
  let l = b.next in
  if l = Array.length b.terms then begin
    b.instrs <- grow b.instrs [];
    b.terms <- grow b.terms Cfg.Halt;
    b.events <- grow b.events [| 0 |]
  end;
  b.next <- l + 1;
  l

let rec list_of buf i acc = if i < 0 then acc else list_of buf (i - 1) (Array.unsafe_get buf i :: acc)

let close b =
  let l = b.current in
  if l >= 0 then begin
    b.instrs.(l) <- list_of b.buf (b.nbuf - 1) [];
    b.events.(l) <- Array.sub b.ev 0 b.nev;
    b.current <- -1
  end

(* Index 0 of a block's events is left for the numbering's stamp. *)
let start b l =
  if l < 0 || l >= b.next then invalid_arg "Build.start: unknown label";
  close b;
  b.current <- l;
  b.nbuf <- 0;
  b.nev <- 1

let push b x =
  if b.nev = Array.length b.ev then b.ev <- grow b.ev 0;
  Array.unsafe_set b.ev b.nev x;
  b.nev <- b.nev + 1

let emit b i =
  if b.current < 0 then invalid_arg "Build: no block started";
  if b.nbuf = Array.length b.buf then b.buf <- grow b.buf nothing;
  Array.unsafe_set b.buf b.nbuf i;
  b.nbuf <- b.nbuf + 1

let write b v = push b (-1 - v)

let copy b dst a =
  emit b (Instr.Assign (Vars.name b.vars dst, Vars.code_atom b.vars a));
  write b dst

let unary b dst op a =
  emit b (Instr.Assign (Vars.name b.vars dst, Expr.Unary (op, operand b a)));
  push b (Cfg.unary_key op a);
  write b dst

let binary b dst op a c =
  emit b (Instr.Assign (Vars.name b.vars dst, Expr.Binary (op, operand b a, operand b c)));
  push b (Cfg.binary_key op a c);
  write b dst

let print b a = emit b (Instr.Print (operand b a))

let effect b op dest args funcs =
  emit b
    (Instr.Effect
       {
         Instr.eff_op = op;
         eff_dest = Option.map (fun (v, ty) -> (Vars.name b.vars v, ty)) dest;
         eff_args = List.map (operand b) args;
         eff_funcs = funcs;
       });
  Option.iter (fun (v, _) -> write b v) dest;
  List.iter (fun a -> if a land 1 = 0 then write b (a lsr 1)) args

let set_term b l term =
  if l < 0 || l >= b.next then invalid_arg "Build.set_term: unknown label";
  b.terms.(l) <- term

let finish b ~name ~prune =
  close b;
  Cfg.assemble ~name ~vars:b.vars ~blocks:b.next ~instrs:b.instrs ~terms:b.terms ~events:b.events ~prune
