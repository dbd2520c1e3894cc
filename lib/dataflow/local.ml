module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool

(* Per-variable kill masks (bit set ⇔ the expression reads the variable),
   so that applying a definition is three word-wide vector ops.  They are
   filled in one pass over the pool's expressions, each setting its bit in
   its operands' masks: a scan of the pool per written variable would cost
   O(variables × candidates) per graph.

   The masks are keyed by variable name in an open-addressing table whose
   slot arrays, like the masks, come from the arena: a warm request builds
   the table without allocating.  A slot's key is an operand occurrence,
   [1 + 2 * index + side] (side 0: the left or only operand, 1: the right
   one), whose variable name is read back from the pool; 0 marks an empty
   slot.  Twice as many slots as there can be keys keeps probes short. *)
type masks = {
  m_pool : Expr_pool.t;
  keys : int array;
  vecs : Bitvec.t array;
  cap_mask : int;  (* slot count - 1, a power of two minus one *)
}

(* Predicates live in flat arrays indexed by the dense label ints: the
   data-flow transfer functions read them on every visit, so the per-access
   hashing (and the [Some] allocated by [Hashtbl.find_opt]) of a table-based
   representation shows up directly in solver throughput.  [live] marks
   which slots belong to blocks of the graph; [masks] is kept so that
   {!update} rescans dirty blocks without rebuilding it. *)
type t = {
  pool : Expr_pool.t;
  graph : Cfg.t;
  antloc : Bitvec.t array;
  comp : Bitvec.t array;
  transp : Bitvec.t array;
  live : bool array;
  masks : masks;
}

let key_name pool key =
  match (Expr_pool.expr pool ((key - 1) lsr 1), (key - 1) land 1) with
  | (Expr.Unary (_, Expr.Var v) | Expr.Binary (_, Expr.Var v, _)), 0 -> v
  | Expr.Binary (_, _, Expr.Var v), 1 -> v
  | _ -> assert false

(* The slot holding [v], or the empty slot where it would go. *)
let rec probe m v s =
  let key = Array.unsafe_get m.keys s in
  if key = 0 || String.equal (key_name m.m_pool key) v then s else probe m v ((s + 1) land m.cap_mask)

let[@inline] slot m v = probe m v (Hashtbl.hash v land m.cap_mask)

let kill_masks scratch pool =
  let n = Expr_pool.size pool in
  let rec pow2 c = if c >= 4 * n then c else pow2 (2 * c) in
  let cap = pow2 16 in
  let m =
    { m_pool = pool; keys = Arena.alloc_int scratch cap; vecs = Arena.alloc_vec scratch cap; cap_mask = cap - 1 }
  in
  let note idx side = function
    | Expr.Var v ->
      let s = slot m v in
      if m.keys.(s) = 0 then begin
        m.keys.(s) <- 1 + (2 * idx) + side;
        m.vecs.(s) <- Arena.alloc scratch n
      end;
      Bitvec.set m.vecs.(s) idx true
    | Expr.Const _ -> ()
  in
  for idx = 0 to n - 1 do
    match Expr_pool.expr pool idx with
    | Expr.Atom _ -> ()
    | Expr.Unary (_, a) -> note idx 0 a
    | Expr.Binary (_, a, b) ->
      note idx 0 a;
      note idx 1 b
  done;
  m

(* Apply a write of [v]: every expression reading [v] is killed for the
   rest of the block, leaves TRANSP and loses its downwards exposure.  A
   variable that no candidate reads has no mask and kills nothing. *)
let kill masks killed c t v =
  let s = slot masks v in
  if Array.unsafe_get masks.keys s <> 0 then begin
    let m = Array.unsafe_get masks.vecs s in
    ignore (Bitvec.union_into ~into:killed m);
    ignore (Bitvec.diff_into ~into:t m);
    ignore (Bitvec.diff_into ~into:c m)
  end

(* One block's instruction scan, as a top-level recursion: a local closure
   would be allocated per block, and the [Instr.defs]/[Instr.candidate]
   option API would allocate a [Some] per instruction — this runs once per
   instruction of every request, so it matches on the instruction directly.

   The computation happens before the definition takes effect, so an
   instruction like [x := x + 1] exposes [x + 1] upwards but not
   downwards. *)
let rec scan_block pool masks killed a c t = function
  | [] -> ()
  | i :: rest ->
    (match i with
    | Instr.Assign (v, e) ->
      if Expr.is_candidate e then begin
        let idx =
          match Expr_pool.index_exn pool e with
          | idx -> idx
          | exception Not_found ->
            invalid_arg "Local.compute: pool is missing a candidate of the graph"
        in
        if not (Bitvec.get killed idx) then Bitvec.set a idx true;
        Bitvec.set c idx true
      end;
      kill masks killed c t v
    | Instr.Print _ -> ()
    | Instr.Effect e ->
      (* Opaque effect: kill every expression reading a variable it may
         clobber — [Instr.kills]: destination plus operands, since a call
         or store may alias.  Walked in place rather than through that
         sorted list; killing a variable twice is harmless.  Never a
         candidate itself, so nothing enters [a]/[c]. *)
      (match e.Instr.eff_dest with
      | Some (v, _) -> kill masks killed c t v
      | None -> ());
      List.iter
        (function
          | Expr.Var v -> kill masks killed c t v
          | Expr.Const _ -> ())
        e.Instr.eff_args);
    scan_block pool masks killed a c t rest

(* [v], or the shared [zero]/[full] row equal to it. *)
let share ~zero ~full v = if Bitvec.is_empty v then zero else if Bitvec.equal v full then full else v

let compute ?scratch g pool =
  let n = Expr_pool.size pool in
  let bound = Cfg.label_bound g in
  let antloc = Arena.alloc_rows scratch n bound
  and comp = Arena.alloc_rows scratch n bound
  and transp = Arena.alloc_rows_full scratch n bound in
  let live = Arena.alloc_bool scratch bound in
  let masks = kill_masks scratch pool in
  (* [killed] tracks expressions whose operands have been modified by an
     earlier instruction of the current block. *)
  let killed = Arena.alloc scratch n in
  List.iter
    (fun l ->
      Bitvec.fill killed false;
      scan_block pool masks killed antloc.(l) comp.(l) transp.(l) (Cfg.instrs g l);
      live.(l) <- true)
    (Cfg.labels g);
  (* Heap rows may be retained (an incremental capture keeps them), and on
     real graphs only about one row in eight is distinct (most blocks
     compute and kill nothing): equal rows share one vector.  Arena tables
     own their rows, so they keep them. *)
  if Option.is_none scratch then begin
    let rows = Bitvec.Interner.create 64 in
    List.iter
      (fun l ->
        antloc.(l) <- Bitvec.Interner.intern rows antloc.(l);
        comp.(l) <- Bitvec.Interner.intern rows comp.(l);
        transp.(l) <- Bitvec.Interner.intern rows transp.(l))
      (Cfg.labels g)
  end;
  { pool; graph = g; antloc; comp; transp; live; masks }

(* Copy-on-write over [prev]'s row tables: a dirty block's rows are
   rescanned into fresh heap vectors and replace the shared ones only where
   they differ, so the result shares every unchanged row with [prev]. *)
let update ~prev g ~dirty =
  let n = Expr_pool.size prev.pool in
  let bound = Cfg.label_bound g in
  let extend old fresh =
    let old_bound = Array.length old in
    if bound = old_bound then Array.copy old
    else Array.init bound (fun l -> if l < old_bound then old.(l) else fresh ())
  in
  let antloc = extend prev.antloc (fun () -> Bitvec.create n)
  and comp = extend prev.comp (fun () -> Bitvec.create n)
  and transp = extend prev.transp (fun () -> Bitvec.create_full n) in
  let live =
    if bound = Array.length prev.live then prev.live
    else begin
      let live = Array.make bound false in
      List.iter (fun l -> live.(l) <- true) (Cfg.labels g);
      live
    end
  in
  let killed = Bitvec.create n in
  let zero = Bitvec.create n and full = Bitvec.create_full n in
  List.iter
    (fun l ->
      if l < 0 || l >= bound || not live.(l) then
        invalid_arg (Printf.sprintf "Local.update: dirty label B%d is not a block" l);
      let a = Bitvec.create n and c = Bitvec.create n and t = Bitvec.create_full n in
      Bitvec.fill killed false;
      scan_block prev.pool prev.masks killed a c t (Cfg.instrs g l);
      let keep rows v = if not (Bitvec.equal rows.(l) v) then rows.(l) <- share ~zero ~full v in
      keep antloc a;
      keep comp c;
      keep transp t)
    dirty;
  { prev with graph = g; antloc; comp; transp; live }

let pool t = t.pool
let nbits t = Expr_pool.size t.pool

let[@inline] get t arr l what =
  if l >= 0 && l < Array.length arr && Array.unsafe_get t.live l then Array.unsafe_get arr l
  else invalid_arg (Printf.sprintf "Local.%s: unknown label B%d" what l)

let antloc t l = get t t.antloc l "antloc"
let comp t l = get t t.comp l "comp"
let transp t l = get t t.transp l "transp"
let antloc_rows t = t.antloc
let comp_rows t = t.comp
let transp_rows t = t.transp

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun l ->
      Format.fprintf ppf "%a: antloc=%a comp=%a transp=%a@," Label.pp l Bitvec.pp (antloc t l)
        Bitvec.pp (comp t l) Bitvec.pp (transp t l))
    (Cfg.labels t.graph);
  Format.fprintf ppf "@]"
