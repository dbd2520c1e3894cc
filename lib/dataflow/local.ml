module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool

(* Per-variable kill masks (bit set ⇔ the expression reads the variable),
   indexed by variable number, so that applying a write is three
   word-wide vector ops found by one array read.  They are filled in one
   pass over the pool's expressions, each setting its bit in its
   operands' masks (the numbering lists each expression's operand
   variables).  A variable that no candidate reads keeps [no_mask]
   (compared physically) and kills nothing.  The masks, like the table,
   come from the arena: a warm request fills them without allocating. *)
let no_mask = Bitvec.create 0

(* Predicates live in flat arrays indexed by the dense label ints: the
   data-flow transfer functions read them on every visit, so the per-access
   hashing (and the [Some] allocated by [Hashtbl.find_opt]) of a table-based
   representation shows up directly in solver throughput.  [live] marks
   which slots belong to blocks of the graph; [numbering] and [masks] are
   kept so that {!update} rescans dirty blocks without rebuilding them. *)
type t = {
  pool : Expr_pool.t;
  graph : Cfg.t;
  antloc : Bitvec.t array;
  comp : Bitvec.t array;
  transp : Bitvec.t array;
  live : bool array;
  numbering : Cfg.numbering;
  masks : Bitvec.t array;
}

let kill_masks scratch nb =
  let n = Expr_pool.size (Cfg.numbering_pool nb) and nvars = Cfg.numbering_vars nb in
  let masks = Arena.alloc_vec scratch nvars in
  Array.fill masks 0 nvars no_mask;
  let reads = Cfg.numbering_reads nb in
  for i = 0 to (2 * n) - 1 do
    let v = reads.(i) in
    if v >= 0 then begin
      if masks.(v) == no_mask then masks.(v) <- Arena.alloc scratch n;
      Bitvec.set masks.(v) (i lsr 1) true
    end
  done;
  masks

(* One block's scan over its events ({!Cfg.events}), as a top-level
   recursion: a local closure would be allocated per block.  A
   computation sets COMP, and ANTLOC unless an operand was written
   earlier in the block; a write kills every expression reading the
   variable for the rest of the block, removes it from TRANSP and from
   the downwards-exposed set. *)
let rec scan ev i masks killed a c t =
  if i < Array.length ev then begin
    let e = Array.unsafe_get ev i in
    if e >= 0 then begin
      if not (Bitvec.get killed e) then Bitvec.set a e true;
      Bitvec.set c e true
    end
    else begin
      let m = Array.unsafe_get masks (-1 - e) in
      if m != no_mask then begin
        ignore (Bitvec.union_into ~into:killed m);
        ignore (Bitvec.diff_into ~into:t m);
        ignore (Bitvec.diff_into ~into:c m)
      end
    end;
    scan ev (i + 1) masks killed a c t
  end

let block_events what g nb l =
  match Cfg.events g nb l with
  | ev -> ev
  | exception Not_found -> invalid_arg (Printf.sprintf "Local.%s: pool is missing a candidate of the graph" what)

(* [v], or the shared [zero]/[full] row equal to it. *)
let share ~zero ~full v = if Bitvec.is_empty v then zero else if Bitvec.equal v full then full else v

let compute ?scratch g pool =
  let n = Expr_pool.size pool in
  let bound = Cfg.label_bound g in
  let antloc = Arena.alloc_rows scratch n bound
  and comp = Arena.alloc_rows scratch n bound
  and transp = Arena.alloc_rows_full scratch n bound in
  let live = Arena.alloc_bool scratch bound in
  let nb = Cfg.numbering_for g pool in
  let masks = kill_masks scratch nb in
  (* [killed] tracks expressions whose operands have been modified by an
     earlier instruction of the current block. *)
  let killed = Arena.alloc scratch n in
  Cfg.iter_labels g (fun l ->
      Bitvec.fill killed false;
      scan (block_events "compute" g nb l) 1 masks killed antloc.(l) comp.(l) transp.(l);
      live.(l) <- true);
  (* Heap rows may be retained (an incremental capture keeps them), and on
     real graphs only about one row in eight is distinct (most blocks
     compute and kill nothing): equal rows share one vector.  Arena tables
     own their rows, so they keep them. *)
  if Option.is_none scratch then begin
    let rows = Bitvec.Interner.create 64 in
    Cfg.iter_labels g (fun l ->
        antloc.(l) <- Bitvec.Interner.intern rows antloc.(l);
        comp.(l) <- Bitvec.Interner.intern rows comp.(l);
        transp.(l) <- Bitvec.Interner.intern rows transp.(l))
  end;
  { pool; graph = g; antloc; comp; transp; live; numbering = nb; masks }

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
      Cfg.iter_labels g (fun l -> live.(l) <- true);
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
      scan (block_events "update" g prev.numbering l) 1 prev.masks killed a c t;
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
