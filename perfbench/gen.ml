(* Workload inputs, generated from the workload seed alone.

   Every program comes from Gencfg's MiniImp generator, whose loops are
   counted, so every program terminates and the interpreter can compare
   the served program with its original.  A program is rendered in the
   format its workload asks for (MiniImp source, CFG text, or Bril JSON);
   the server only ever sees these texts. *)

module Prng = Lcm_support.Prng
module Gencfg = Lcm_eval.Gencfg
module Ast = Lcm_ir.Ast
module Cfg = Lcm_cfg.Cfg
module Lower = Lcm_cfg.Lower
module Frontend = Lcm_frontend.Frontend
module Json = Lcm_server.Json

(* One distinct program of a run workload: [frame_tail] is everything of
   the request frame after the id, so a request is
   ["{\"id\":" ^ id ^ frame_tail]. *)
type prog = {
  fmt : string;  (* frontend name *)
  text : string;
  frame_tail : string;
}

let params_chunk = { Gencfg.num_stmts = 6; max_depth = 2; num_vars = 5; loop_bound = 2 }

(* The inputs every generated function reads; the interpreter binds them. *)
let inputs = Gencfg.func_inputs params_chunk

let blocks_of f = Cfg.num_blocks (Lower.func f)

(* Gencfg may write an operation on constants alone (2 + 3, -4).  No
   assignment kills such an expression, so LCM hoists it to the entry and
   its temporary lives through the whole function: one such expression
   decides a function's temp lifetime.  The generated programs read the
   first input instead of the left constant. *)
let rec no_const_expr = function
  | Ast.Binary (op, Ast.Int _, (Ast.Int _ as b)) -> Ast.Binary (op, Ast.Var (List.hd inputs), b)
  | Ast.Unary (op, Ast.Int _) -> Ast.Unary (op, Ast.Var (List.hd inputs))
  | Ast.Binary (op, a, b) -> Ast.Binary (op, no_const_expr a, no_const_expr b)
  | Ast.Unary (op, a) -> Ast.Unary (op, no_const_expr a)
  | e -> e

let rec no_const_stmts body = List.map no_const_stmt body

and no_const_stmt = function
  | Ast.Assign (v, e) -> Ast.Assign (v, no_const_expr e)
  | Ast.If (c, a, b) -> Ast.If (no_const_expr c, no_const_stmts a, no_const_stmts b)
  | Ast.While (c, b) -> Ast.While (no_const_expr c, no_const_stmts b)
  | Ast.Do_while (b, c) -> Ast.Do_while (no_const_stmts b, no_const_expr c)
  | Ast.Print e -> Ast.Print (no_const_expr e)
  | Ast.Return e -> Ast.Return (no_const_expr e)

let random_func params rng =
  let f = Gencfg.random_func ~params rng in
  { f with Ast.body = no_const_stmts f.Ast.body }

let without_return body = List.filter (function Ast.Return _ -> false | _ -> true) body

(* A function of chunks in sequence until the lowered graph has about
   [blocks] blocks.  Before each chunk the inputs rotate (z := a; a := b;
   ...; e := z): copies that kill every candidate expression, so no
   redundancy, and no temporary, spans two chunks.  The function's
   quality figures are then sums over many independent chunks, which
   keeps them close from one seed to the next.  Chunks reuse loop-counter
   names, which is safe: each counted loop resets its counter first. *)
let rotation =
  let rec go = function
    | a :: (b :: _ as rest) -> Ast.Assign (a, Ast.Var b) :: go rest
    | [ last ] -> [ Ast.Assign (last, Ast.Var "z") ]
    | [] -> []
  in
  Ast.Assign ("z", Ast.Var (List.hd inputs)) :: go inputs

let chunked_func rng ~blocks =
  let rec grow acc est =
    if est >= blocks then List.concat (List.rev acc)
    else begin
      let f = random_func params_chunk rng in
      grow ((rotation @ without_return f.Ast.body) :: acc) (est + blocks_of f - 2)
    end
  in
  let body = grow [] 0 in
  {
    Ast.name = "large";
    params = inputs;
    body = body @ [ Ast.Return (Ast.Binary (Lcm_ir.Expr.Add, Ast.Var "a", Ast.Var "b")) ];
  }

let render fmt f =
  match fmt with
  | "miniimp" -> Ast.to_string [ f ]
  | "cfg" -> Cfg.to_string (Lower.func f)
  | "bril" -> Frontend.bril.Frontend.print (Lower.func f)
  | _ -> invalid_arg ("render: " ^ fmt)

let run_tail ~fmt text =
  Printf.sprintf ",\"op\":\"run\",\"format\":\"%s\",\"program\":%s}" fmt
    (Json.to_string (Json.String text))

let prog fmt text = { fmt; text; frame_tail = run_tail ~fmt text }

(* ---- serve-small: 96 functions, a third in each format ---- *)

let serve_small seed =
  let rng = Prng.of_int (seed * 31 + 1) in
  let fmts = [| "miniimp"; "cfg"; "bril" |] in
  Array.init 96 (fun i ->
      let fmt = fmts.(i mod 3) in
      prog fmt (render fmt (chunked_func rng ~blocks:48)))

(* ---- serve-large: 8 functions of about 1000 blocks, as Bril ---- *)

let serve_large seed =
  let rng = Prng.of_int (seed * 31 + 2) in
  Array.init 8 (fun _ -> prog "bril" (render "bril" (chunked_func rng ~blocks:1080)))

(* ---- fleet-cached: 1024 small CFG texts, skewed repeats ---- *)

let fleet_programs = 1024
let zipf_s = 1.0

(* A relabelled copy: every block label B<n> past the entry (B0) and the
   exit (B1) becomes B<n + 5000>.  The parser renumbers labels in order of
   appearance, so the copy denotes the same canonical graph in different
   bytes. *)
let relabel text =
  let b = Buffer.create (String.length text + 64) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = 'B' && !i + 1 < n && text.[!i + 1] >= '0' && text.[!i + 1] <= '9'
       && (!i = 0 || not (Char.lowercase_ascii text.[!i - 1] >= 'a' && Char.lowercase_ascii text.[!i - 1] <= 'z'))
    then begin
      let j = ref (!i + 1) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      let v = int_of_string (String.sub text (!i + 1) (!j - !i - 1)) in
      Buffer.add_string b (Printf.sprintf "B%d" (if v < 2 then v else v + 5000));
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

type fleet = {
  originals : prog array;
  relabelled : prog array;
  cdf : float array;  (* Zipf cumulative distribution over [originals] *)
}

let fleet_cached seed =
  let rng = Prng.of_int (seed * 31 + 3) in
  let originals = Array.init fleet_programs (fun _ -> prog "cfg" (render "cfg" (chunked_func rng ~blocks:24))) in
  let relabelled = Array.map (fun p -> prog "cfg" (relabel p.text)) originals in
  let w = Array.init fleet_programs (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  { originals; relabelled; cdf }

(* The request stream: program rank drawn from the Zipf distribution; a
   draw of a program already sent is a relabelled copy with probability
   1/4. *)
let fleet_stream f seed =
  let rng = Prng.of_int (seed * 31 + 4) in
  let seen = Array.make fleet_programs false in
  fun () ->
    let u = float_of_int (Prng.int rng 1_000_000_000) /. 1e9 in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if f.cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    let k = min (fleet_programs - 1) (find 0 (fleet_programs - 1)) in
    let repeat = seen.(k) in
    seen.(k) <- true;
    if repeat && Prng.chance rng ~num:1 ~den:4 then (k, f.relabelled.(k)) else (k, f.originals.(k))

(* ---- delta-journal: 8 retained 1000-block CFGs and an edit stream ---- *)

let delta_handles = 8
let prebuilt_patches = 32

(* Share of edits that add an expression the graph does not compute yet,
   changing the candidate pool and forcing the server's full re-solve.
   Replacing such an edit later shrinks the pool again, so roughly twice
   this share of deltas take the full path. *)
let fresh_expr_percent = 5

type base = {
  b_text : string;  (* canonical CFG text, what the server retains *)
  b_graph : Cfg.t;  (* its parse: labels are the wire's B<n> *)
  b_blocks : (int * string array) array;
      (* editable blocks: label, and the candidate expressions the block's
         own body computes, rendered *)
}

let bases seed =
  let rng = Prng.of_int (seed * 31 + 5) in
  Array.init delta_handles (fun _ ->
      let text = Cfg.to_string (Lcm_cfg.Cfg_text.parse (render "cfg" (chunked_func rng ~blocks:1080))) in
      let g = Lcm_cfg.Cfg_text.parse text in
      let blocks =
        List.filter_map
          (fun l ->
            match List.filter_map Lcm_ir.Instr.candidate (Cfg.instrs g l) with
            | [] -> None
            | es when l <> Cfg.entry g && l <> Cfg.exit_label g ->
              Some (l, Array.of_list (List.map Lcm_ir.Expr.to_string es))
            | _ -> None)
          (Cfg.labels g)
        |> Array.of_list
      in
      { b_text = text; b_graph = g; b_blocks = blocks })

(* One delta: rewrite a block's body as its base body plus one assignment
   to an input variable of an expression the block already computes.  The
   candidate pool lists expressions in order of first occurrence, and the
   server re-solves incrementally only while the pool stays the same list;
   an expression the block already computes keeps it so.  The new
   computation is redundant within its block, so an edit changes kills
   and local predicates without adding long-lived temps.  The edit is a function of (seed, handle, index)
   only and a body is always replaced whole, so the graph a handle holds
   is its base with, per block, the body of that block's latest edit.
   Edits never touch loop counters, so programs keep terminating. *)
type delta = {
  d_block : int;  (* label *)
  d_instrs : string list;
}

let delta_edit bases seed ~handle ~index =
  let b = bases.(handle) in
  let rng = Prng.of_int ((((seed * 7919) + handle) * 1_000_003) + index) in
  let l, own = b.b_blocks.(Prng.int rng (Array.length b.b_blocks)) in
  let dst = List.nth inputs (Prng.int rng (List.length inputs)) in
  let rhs =
    if Prng.int rng 100 < fresh_expr_percent then
      Printf.sprintf "%s * %d" (List.nth inputs (Prng.int rng (List.length inputs))) (100 + Prng.int rng 900)
    else own.(Prng.int rng (Array.length own))
  in
  let body = List.map Lcm_ir.Instr.to_string (Cfg.instrs b.b_graph l) in
  { d_block = l; d_instrs = body @ [ Printf.sprintf "%s := %s" dst rhs ] }

let delta_frame_tail ~handle_name d =
  Printf.sprintf ",\"op\":\"delta\",\"handle\":\"%s\",\"edits\":[{\"block\":\"B%d\",\"instrs\":%s}]}"
    handle_name d.d_block
    (Json.to_string (Json.List (List.map (fun s -> Json.String s) d.d_instrs)))

let retain_frame_tail b =
  Printf.sprintf ",\"op\":\"run\",\"format\":\"cfg\",\"retain\":true,\"program\":%s}"
    (Json.to_string (Json.String b.b_text))
