module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Scratch = Lcm_support.Pool.Scratch
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Order = Lcm_cfg.Order
module Local = Lcm_dataflow.Local

(* COPY(b) = COMP(b) ∩ LIVEOUT(b) ∩ ¬(DELETE(b) ∩ TRANSP(b)), one word of
   it; the emptiness test is a top-level recursion, since a closure over
   the rows would be allocated per block. *)
let[@inline] copy_word cw ow dw tw w = cw.(w) land ow.(w) land lnot (dw.(w) land tw.(w))

let rec copy_nonzero cw ow dw tw nw w =
  w < nw && (copy_word cw ow dw tw w <> 0 || copy_nonzero cw ow dw tw nw (w + 1))

(* The COPY sets come from [scratch]; everything else — the DELETE and
   INSERT lookups and the liveness fixpoint — from [arena]. *)
let copies_on arena ~scratch g local ~insert_edges ~deletes =
  let n = Local.nbits local in
  let nw = Bitvec.words_for n in
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound in
  (* DELETE and INSERT lookups as dense arrays of rows rather than
     hashtables: the fixpoint below reads them once per successor per
     visit.  Deletes are keyed by label; inserts are keyed positionally by
     (source, successor-index) through a CSR-style offset table over
     [adj_succ], so the visit loop never builds an edge key.  Slots without
     a decided set hold the empty row. *)
  let zero = Arena.alloc arena n in
  let del = Arena.alloc_vec arena bound in
  Array.fill del 0 bound zero;
  List.iter (fun (l, set) -> if l >= 0 && l < bound then del.(l) <- set) deletes;
  let succ_off = adj.Cfg.adj_succ_off in
  let ins = Arena.alloc_vec arena succ_off.(bound) in
  Array.fill ins 0 succ_off.(bound) zero;
  List.iter
    (fun ((p, s), set) ->
      if p >= 0 && p < bound then begin
        let succs = adj.Cfg.adj_succ.(p) in
        for i = 0 to Array.length succs - 1 do
          if Label.equal succs.(i) s then ins.(succ_off.(p) + i) <- set
        done
      end)
    insert_edges;
  (* Backward may-liveness of the temporaries, worklist-driven: LIVEIN(b)
     depends only on LIVEOUT(b), which reads LIVEIN of b's successors — so
     when a block's LIVEIN grows, only its predecessors need re-visiting.
     Dense arrays of rows indexed by label.  A visit is one word loop per
     successor into a word accumulator, then one pass that stores LIVEOUT
     and compares-and-stores LIVEIN. *)
  let comp = Local.comp_rows local in
  let livein = Arena.alloc_rows arena n bound in
  let liveout = Arena.alloc_rows arena n bound in
  let acc = Arena.alloc_int arena nw in
  let rpo_pos = adj.Cfg.adj_rpo_pos in
  (* FIFO worklist as an arena-backed ring buffer ([in_queue] bounds
     occupancy by [bound], so [bound + 1] cells distinguish full from
     empty); a [Queue.t] would allocate a cell per enqueue. *)
  let qcap = bound + 1 in
  let qbuf = Arena.alloc_int arena qcap in
  let qhead = ref 0 and qtail = ref 0 in
  let in_queue = Arena.alloc_bool arena bound in
  let enqueue l =
    if (not in_queue.(l)) && rpo_pos.(l) >= 0 then begin
      in_queue.(l) <- true;
      qbuf.(!qtail) <- l;
      qtail := (!qtail + 1) mod qcap
    end
  in
  (* Only a block with a DELETE set can make LIVEIN non-empty: every
     other block's first visit would compute the empty set it starts with.
     Seeding the deleting blocks alone reaches the same least fixpoint. *)
  List.iter (fun (l, _) -> if l >= 0 && l < bound then enqueue l) deletes;
  while !qhead <> !qtail do
    let l = qbuf.(!qhead) in
    qhead := (!qhead + 1) mod qcap;
    in_queue.(l) <- false;
    (* LIVEOUT(b) = ⋃ over edges (b,s) of LIVEIN(s) ∩ ¬INSERT(b,s) *)
    Array.fill acc 0 nw 0;
    let succs = adj.Cfg.adj_succ.(l) and off = succ_off.(l) in
    for i = 0 to Array.length succs - 1 do
      let li = Bitvec.words livein.(succs.(i)) and mask = Bitvec.words ins.(off + i) in
      for w = 0 to nw - 1 do
        acc.(w) <- acc.(w) lor (li.(w) land lnot mask.(w))
      done
    done;
    (* LIVEIN(b) = DELETE(b) ∪ (LIVEOUT(b) ∩ ¬COMP(b)) *)
    let out = Bitvec.words liveout.(l) and inw = Bitvec.words livein.(l) in
    let cw = Bitvec.words comp.(l) and dw = Bitvec.words del.(l) in
    let changed = ref false in
    for w = 0 to nw - 1 do
      let o = acc.(w) in
      out.(w) <- o;
      let x = dw.(w) lor (o land lnot cw.(w)) in
      if x <> inw.(w) then begin
        inw.(w) <- x;
        changed := true
      end
    done;
    if !changed then begin
      let preds = adj.Cfg.adj_pred.(l) in
      for i = 0 to Array.length preds - 1 do
        enqueue preds.(i)
      done
    end
  done;
  (* Only non-empty COPY sets are materialized (as arena vectors). *)
  let transp = Local.transp_rows local in
  List.filter_map
    (fun l ->
      let cw = Bitvec.words comp.(l) and ow = Bitvec.words liveout.(l) in
      let dw = Bitvec.words del.(l) and tw = Bitvec.words transp.(l) in
      if not (copy_nonzero cw ow dw tw nw 0) then None
      else begin
        let v = Arena.alloc scratch n in
        let dst = Bitvec.words v in
        for w = 0 to nw - 1 do
          dst.(w) <- copy_word cw ow dw tw w
        done;
        Some (l, v)
      end)
    adj.Cfg.adj_labels

(* Without an arena the analysis checks one out for what does not escape. *)
let copies ?scratch g local ~insert_edges ~deletes =
  match scratch with
  | Some _ -> copies_on scratch ~scratch g local ~insert_edges ~deletes
  | None ->
    Scratch.with_arena ~blocks:(Cfg.label_bound g) ~exprs:(Local.nbits local) (fun a ->
        copies_on (Some a) ~scratch g local ~insert_edges ~deletes)
