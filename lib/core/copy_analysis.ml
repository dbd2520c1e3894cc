module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Scratch = Lcm_support.Pool.Scratch
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Local = Lcm_dataflow.Local
module Rowtab = Lcm_support.Rowtab

(* Row [i] of a table, located without a call, as in {!Solver}. *)
let[@inline] rpage (t : Rowtab.t) i = t.Rowtab.spine.(i lsr t.Rowtab.shift)
let[@inline] roff (t : Rowtab.t) i = (i land ((1 lsl t.Rowtab.shift) - 1)) * t.Rowtab.nw

type system = {
  adj : Cfg.adjacency;
  nw : int;
  comp : Rowtab.t;
  transp : Rowtab.t;
  del : int array -> Label.t -> unit;
  ins : int array -> Label.t -> int -> unit;
  livein : Rowtab.t;
  acc : int array;
  tmp : int array;
  tmp2 : int array;
}

let rec nonzero_at m o nw w = w < nw && (Array.unsafe_get m (o + w) <> 0 || nonzero_at m o nw (w + 1))

(* LIVEOUT(b) = ⋃ over edges (b,s) of LIVEIN(s) ∩ ¬INSERT(b,s), into
   [acc]: one word loop per successor. *)
let liveout sys l =
  let acc = sys.acc and tmp = sys.tmp and nw = sys.nw in
  for w = 0 to nw - 1 do
    Array.unsafe_set acc w 0
  done;
  let succs = sys.adj.Cfg.adj_succ.(l) in
  for j = 0 to Array.length succs - 1 do
    let s = succs.(j) in
    let live = rpage sys.livein s and o = roff sys.livein s in
    (* An edge into a block where nothing is live adds nothing. *)
    if nonzero_at live o nw 0 then begin
      sys.ins tmp l j;
      for w = 0 to nw - 1 do
        acc.(w) <- acc.(w) lor (live.(o + w) land lnot tmp.(w))
      done
    end
  done

(* LIVEIN(b) = DELETE(b) ∪ (LIVEOUT(b) ∩ ¬COMP(b)); whether it changed. *)
let visit sys l =
  liveout sys l;
  sys.del sys.tmp l;
  let acc = sys.acc and dw = sys.tmp and cw = rpage sys.comp l and co = roff sys.comp l in
  for w = 0 to sys.nw - 1 do
    acc.(w) <- dw.(w) lor (acc.(w) land lnot cw.(co + w))
  done;
  Rowtab.store sys.livein l acc

(* The worklist: when a block's LIVEIN grows, only its predecessors need
   re-visiting.  Returns the number of visits. *)
let drain sys q =
  let rpo_pos = sys.adj.Cfg.adj_rpo_pos in
  let visits = ref 0 in
  while not (Rowtab.is_empty q) do
    let l = Rowtab.pop q in
    incr visits;
    if visit sys l then begin
      let preds = sys.adj.Cfg.adj_pred.(l) in
      for i = 0 to Array.length preds - 1 do
        let p = preds.(i) in
        if rpo_pos.(p) >= 0 then Rowtab.push q p
      done
    end
  done;
  !visits

let push_reachable sys q l = if sys.adj.Cfg.adj_rpo_pos.(l) >= 0 then Rowtab.push q l

(* The restart's lift, for a ∪ system: the lifted blocks on [lf] have had
   bits cleared back to the start (∅).  A predecessor d of a lifted block r
   takes the cleared bits its transfer passes — edge (d,r) carries no
   insertion of them, d neither computes nor deletes them — and that are
   still set at d.  Every lifted block and every reachable predecessor of
   one is queued. *)
let propagate_lift sys q lf =
  let adj = sys.adj and nw = sys.nw and mask = lf.Rowtab.mask in
  let rec loop () =
    let r = Rowtab.next_lifted lf in
    if r >= 0 then begin
      push_reachable sys q r;
      let old = Rowtab.base_page sys.livein r and ro = roff sys.livein r in
      let preds = adj.Cfg.adj_pred.(r) in
      for i = 0 to Array.length preds - 1 do
        let d = preds.(i) in
        push_reachable sys q d;
        sys.ins sys.tmp d (Rowtab.index adj.Cfg.adj_succ.(d) r);
        sys.del sys.tmp2 d;
        (* The pages are read afresh: a clear may have copied them. *)
        let cur = rpage sys.livein r in
        let live = rpage sys.livein d and o = roff sys.livein d in
        let ins = sys.tmp and dw = sys.tmp2 and cw = rpage sys.comp d and co = roff sys.comp d in
        for w = 0 to nw - 1 do
          mask.(w) <-
            (cur.(ro + w) lxor old.(ro + w)) land lnot (ins.(w) lor cw.(co + w) lor dw.(w)) land live.(o + w)
        done;
        if Rowtab.lift sys.livein d mask ~up:false then Rowtab.note lf d
      done;
      loop ()
    end
  in
  loop ()

(* COPY(b) = COMP(b) ∩ LIVEOUT(b) ∩ ¬(DELETE(b) ∩ TRANSP(b)), into [acc];
   whether it is non-empty.  The fixpoint never visits an unreachable
   block, whose LIVEOUT is the start value ∅. *)
let copy_row sys l =
  let cw = rpage sys.comp l and co = roff sys.comp l in
  if sys.adj.Cfg.adj_rpo_pos.(l) < 0 || not (nonzero_at cw co sys.nw 0) then false
  else begin
    liveout sys l;
    nonzero_at sys.acc 0 sys.nw 0
    &&
    (sys.del sys.tmp l;
    let acc = sys.acc and dw = sys.tmp in
    let tw = rpage sys.transp l and tro = roff sys.transp l in
    let any = ref false in
    for w = 0 to sys.nw - 1 do
      let x = cw.(co + w) land acc.(w) land lnot (dw.(w) land tw.(tro + w)) in
      acc.(w) <- x;
      if x <> 0 then any := true
    done;
    !any)
  end

(* The COPY sets come from [scratch]; everything else — the DELETE and
   INSERT tables and the liveness fixpoint — from [work].  Deletes are
   keyed by label; inserts positionally by (source, successor index)
   through the adjacency's CSR offsets, so a visit never builds an edge
   key.  Slots without a decided set hold the empty row.  Only a block with
   a DELETE set can make LIVEIN non-empty — every other block's first visit
   would compute the ∅ it starts with — so seeding the deleting blocks
   alone reaches the least fixpoint. *)
let copies_on work ~scratch g local ~insert_edges ~deletes =
  let n = Local.nbits local in
  let nw = Bitvec.words_for n in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound and nedges = adj.Cfg.adj_succ_off.(adj.Cfg.adj_bound) in
  let zero = Arena.alloc work n in
  let del = Arena.alloc_vec work bound in
  Array.fill del 0 bound zero;
  List.iter (fun (l, set) -> if l >= 0 && l < bound then del.(l) <- set) deletes;
  let ins = Arena.alloc_vec work nedges in
  Array.fill ins 0 nedges zero;
  List.iter
    (fun ((p, s), set) ->
      if p >= 0 && p < bound then begin
        let j = Rowtab.index adj.Cfg.adj_succ.(p) s in
        if j >= 0 then ins.(adj.Cfg.adj_succ_off.(p) + j) <- set
      end)
    insert_edges;
  let sys =
    {
      adj;
      nw;
      comp = Local.comp_rows local;
      transp = Local.transp_rows local;
      del = (fun buf l -> Array.blit (Bitvec.words del.(l)) 0 buf 0 nw);
      ins = (fun buf l j -> Array.blit (Bitvec.words ins.(adj.Cfg.adj_succ_off.(l) + j)) 0 buf 0 nw);
      livein = Rowtab.create work ~nw ~count:bound (Bitvec.words zero);
      acc = Arena.alloc_int work (max 1 nw);
      tmp = Arena.alloc_int work (max 1 nw);
      tmp2 = Arena.alloc_int work (max 1 nw);
    }
  in
  let q = Rowtab.queue work bound in
  List.iter (fun (l, _) -> if l >= 0 && l < bound then push_reachable sys q l) deletes;
  ignore (drain sys q);
  (* Only non-empty COPY sets are materialized. *)
  Array.fold_right
    (fun l acc ->
      if not (copy_row sys l) then acc
      else begin
        let v = Arena.alloc scratch n in
        Array.blit sys.acc 0 (Bitvec.words v) 0 nw;
        (l, v) :: acc
      end)
    adj.Cfg.adj_labels []

(* Without an arena the analysis checks one out for what does not escape. *)
let copies ?scratch g local ~insert_edges ~deletes =
  match scratch with
  | Some _ -> copies_on scratch ~scratch g local ~insert_edges ~deletes
  | None ->
    Scratch.with_arena ~blocks:(Cfg.label_bound g) ~exprs:(Local.nbits local) (fun a ->
        copies_on (Some a) ~scratch g local ~insert_edges ~deletes)
