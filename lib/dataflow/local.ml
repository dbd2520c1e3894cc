module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Rowtab = Lcm_support.Rowtab
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool

(* Row [i] of a table, located without a call, as in {!Solver}. *)
let[@inline] rpage (t : Rowtab.t) i = t.Rowtab.spine.(i lsr t.Rowtab.shift)
let[@inline] roff (t : Rowtab.t) i = (i land ((1 lsl t.Rowtab.shift) - 1)) * t.Rowtab.nw

(* Per-variable kill masks (bit set ⇔ the expression reads the variable),
   indexed by variable number, so that applying a write is three
   word-wide vector ops found by one array read.  They are filled in one
   pass over the pool's expressions, each setting its bit in its
   operands' masks (the numbering lists each expression's operand
   variables).  A variable that no candidate reads keeps [no_mask]
   (compared physically) and kills nothing.  The masks, like the table,
   come from the arena: a warm request fills them without allocating. *)
let no_mask = Bitvec.create 0

(* Predicates live in paged row tables indexed by the dense label ints
   ({!Rowtab}): the data-flow kernels read them word by word on every
   visit.  [live] marks which labels are blocks of the graph; [numbering]
   and [masks] are kept so that {!update} rescans dirty blocks without
   rebuilding them. *)
type t = {
  pool : Expr_pool.t;
  antloc : Rowtab.t;
  comp : Rowtab.t;
  transp : Rowtab.t;
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

(* One block's scan over its events ({!Cfg.events}) into the word rows
   [a], [c] and [t], as a top-level recursion: a local closure would be
   allocated per block.  A computation sets COMP, and ANTLOC unless an
   operand was written earlier in the block; a write kills every
   expression reading the variable for the rest of the block, removes it
   from TRANSP and from the downwards-exposed set. *)
let rec scan ev i masks nw killed a ao c co t tro =
  if i < Array.length ev then begin
    let e = Array.unsafe_get ev i in
    if e >= 0 then begin
      let w = e / Bitvec.bits_per_word and b = 1 lsl (e mod Bitvec.bits_per_word) in
      if killed.(w) land b = 0 then a.(ao + w) <- a.(ao + w) lor b;
      c.(co + w) <- c.(co + w) lor b
    end
    else begin
      let m = Array.unsafe_get masks (-1 - e) in
      if m != no_mask then begin
        let m = Bitvec.words m in
        for w = 0 to nw - 1 do
          let x = m.(w) in
          killed.(w) <- killed.(w) lor x;
          t.(tro + w) <- t.(tro + w) land lnot x;
          c.(co + w) <- c.(co + w) land lnot x
        done
      end
    end;
    scan ev (i + 1) masks nw killed a ao c co t tro
  end

let block_events what g nb l =
  match Cfg.events g nb l with
  | ev -> ev
  | exception Not_found -> invalid_arg (Printf.sprintf "Local.%s: pool is missing a candidate of the graph" what)

(* A fresh table's rows start at ∅, ∅ and all-ones, and the scan writes
   them in place. *)
let compute ?scratch g pool =
  let n = Expr_pool.size pool in
  let nw = Bitvec.words_for n and bound = Cfg.label_bound g in
  let killed = Arena.alloc_int scratch (max 1 nw) in
  let zero = Bitvec.words (Arena.alloc scratch n) and full = Bitvec.words (Arena.alloc_full scratch n) in
  let table init = Rowtab.create scratch ~nw ~count:bound init in
  let live = Arena.alloc_bool scratch bound in
  let nb = Cfg.numbering_for g pool in
  let x =
    {
      pool;
      antloc = table zero;
      comp = table zero;
      transp = table full;
      live;
      numbering = nb;
      masks = kill_masks scratch nb;
    }
  in
  Cfg.iter_labels g (fun l ->
      Array.fill killed 0 nw 0;
      scan (block_events "compute" g nb l) 1 x.masks nw killed (rpage x.antloc l) (roff x.antloc l)
        (rpage x.comp l) (roff x.comp l) (rpage x.transp l) (roff x.transp l);
      live.(l) <- true);
  x

(* [prev]'s kill masks for [nb], an extension of [prev]'s numbering by
   appended expressions over the same table: each variable one of them
   reads gets a new mask, [prev]'s bits and the appended ones; the other
   masks are shared. *)
let extend_masks prev nb =
  let n0 = Expr_pool.size prev.pool and n = Expr_pool.size (Cfg.numbering_pool nb) in
  let masks = Array.copy prev.masks and reads = Cfg.numbering_reads nb in
  for i = 2 * n0 to (2 * n) - 1 do
    let v = reads.(i) in
    if v >= 0 then begin
      if masks.(v) == prev.masks.(v) then begin
        let m = Bitvec.create n and old = masks.(v) in
        Array.blit (Bitvec.words old) 0 (Bitvec.words m) 0 (Bitvec.words_for (Bitvec.length old));
        masks.(v) <- m
      end;
      Bitvec.set masks.(v) (i lsr 1) true
    end
  done;
  masks

(* The appended columns of every block's TRANSP row: set, then cleared
   where the block writes a variable one of them reads — as a scan from
   scratch would leave them, since [prev]'s columns were already cleared
   by the same writes.  [t] is a word buffer. *)
let rec clear_writes ev i affected masks nw t =
  if i < Array.length ev then begin
    let e = Array.unsafe_get ev i in
    if e < 0 && affected.(-1 - e) then begin
      let m = Bitvec.words masks.(-1 - e) in
      for w = 0 to nw - 1 do
        t.(w) <- t.(w) land lnot m.(w)
      done
    end;
    clear_writes ev (i + 1) affected masks nw t
  end

let extend_transp ?scratch x prev g n0 t =
  let n = Expr_pool.size x.pool and nw = x.transp.Rowtab.nw in
  let appended = Arena.alloc_int scratch (max 1 nw) in
  for i = n0 to n - 1 do
    let w = i / Bitvec.bits_per_word in
    appended.(w) <- appended.(w) lor (1 lsl (i mod Bitvec.bits_per_word))
  done;
  let affected = Arena.alloc_bool scratch (max 1 (Array.length x.masks)) in
  Array.iteri (fun v m -> if m != prev.masks.(v) then affected.(v) <- true) x.masks;
  let old = prev.transp in
  Cfg.iter_labels g (fun l ->
      if l < old.Rowtab.count then begin
        let p = rpage old l and o = roff old l in
        for w = 0 to nw - 1 do
          t.(w) <- p.(o + w) lor appended.(w)
        done;
        clear_writes (block_events "update" g x.numbering l) 1 affected x.masks nw t;
        ignore (Rowtab.store x.transp l t)
      end)

(* Copy-on-write over [prev]'s tables: a dirty block's rows are rescanned
   into word buffers and stored, so only the pages of rows that changed
   are copied and [prev] is never written.  Under a [numbering] whose pool
   extends [prev]'s, every block's TRANSP row first gains the appended
   columns.  [scratch] backs the buffers and the tables' change lists. *)
let update ?scratch ?numbering ~prev g ~dirty =
  let nb = Option.value numbering ~default:prev.numbering in
  let pool = Cfg.numbering_pool nb in
  let n0 = Expr_pool.size prev.pool and n = Expr_pool.size pool in
  let nw = Bitvec.words_for n and bound = Cfg.label_bound g in
  if n < n0 || nw <> Bitvec.words_for n0 then invalid_arg "Local.update: the pool does not extend the previous one";
  let buf () = Arena.alloc_int scratch (max 1 nw) in
  let killed = buf () and a = buf () and c = buf () and t = buf () in
  let full = Bitvec.words (Arena.alloc_full scratch n) in
  let table old init = Rowtab.cow scratch old ~count:bound init in
  let live =
    if bound = Array.length prev.live then prev.live
    else begin
      let live = Array.make bound false in
      Cfg.iter_labels g (fun l -> live.(l) <- true);
      live
    end
  in
  let masks = if n = n0 then prev.masks else extend_masks prev nb in
  let x =
    {
      pool;
      antloc = table prev.antloc a;
      comp = table prev.comp c;
      transp = table prev.transp full;
      live;
      numbering = nb;
      masks;
    }
  in
  if n > n0 then extend_transp ?scratch x prev g n0 t;
  List.iter
    (fun l ->
      if l < 0 || l >= bound || not live.(l) then
        invalid_arg (Printf.sprintf "Local.update: dirty label B%d is not a block" l);
      Array.fill killed 0 nw 0;
      Array.fill a 0 nw 0;
      Array.fill c 0 nw 0;
      Array.blit full 0 t 0 nw;
      scan (block_events "update" g nb l) 1 masks nw killed a 0 c 0 t 0;
      ignore (Rowtab.store x.antloc l a);
      ignore (Rowtab.store x.comp l c);
      ignore (Rowtab.store x.transp l t))
    dirty;
  Rowtab.seal x.antloc;
  Rowtab.seal x.comp;
  Rowtab.seal x.transp;
  x

let nbits t = Expr_pool.size t.pool
let numbering t = t.numbering

let get t rows l what =
  if l >= 0 && l < Array.length t.live && t.live.(l) then Rowtab.to_bitvec rows l (nbits t)
  else invalid_arg (Printf.sprintf "Local.%s: unknown label B%d" what l)

let antloc t l = get t t.antloc l "antloc"
let comp t l = get t t.comp l "comp"
let transp t l = get t t.transp l "transp"
let antloc_rows t = t.antloc
let comp_rows t = t.comp
let transp_rows t = t.transp
