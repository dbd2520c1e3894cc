module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Scratch = Lcm_support.Pool.Scratch
module Trace = Lcm_obs.Trace
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Local = Lcm_dataflow.Local
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Rowtab = Lcm_support.Rowtab
module Expr_pool = Lcm_ir.Expr_pool

(* Row [i] of a table, located without a call, as in {!Solver}. *)
let[@inline] rpage (t : Rowtab.t) i = t.Rowtab.spine.(i lsr t.Rowtab.shift)
let[@inline] roff (t : Rowtab.t) i = (i land ((1 lsl t.Rowtab.shift) - 1)) * t.Rowtab.nw

type analysis = {
  pool : Expr_pool.t;
  local : Local.t;
  avail : Avail.t;
  antic : Antic.t;
  earliest : Label.t * Label.t -> Bitvec.t;
  later : Label.t * Label.t -> Bitvec.t;
  laterin : Label.t -> Bitvec.t;
  insert : ((Label.t * Label.t) * Bitvec.t) list;
  delete : (Label.t * Bitvec.t) list;
  copy : (Label.t * Bitvec.t) list;
  sweeps : int;
  visits : int;
  delay_visits : int;
  live_visits : int;
  ranked : (int array * string array) option;
}

(* --- the tail of the cascade ----------------------------------------------

   After the safety systems come EARLIEST (per edge), the LATERIN delay
   fixpoint (per block), INSERT (per edge) and DELETE (per block), the
   temporaries' liveness (per block) and COPY (per block).  EARLIEST,
   LATERIN and LIVEIN are {!Rowtab} tables in the adjacency snapshot's
   layout: EARLIEST's row [adj_pred_off.(b) + i] is the edge from the i-th
   predecessor of b, the others are by label.  INSERT and DELETE are read
   from them where needed, and the lists the analysis returns hold the
   non-empty INSERT, DELETE and COPY sets in {!Cfg.fold_edges} (INSERT) or
   label order.  A from-scratch solve fills fresh tables, every row dirty;
   a restart writes copy-on-write tables over the captured ones and
   re-derives only the rows whose inputs moved, so both run the same
   kernels. *)

type tail = {
  t_adj : Cfg.adjacency;
  t_nbits : int;
  t_earliest : Rowtab.t;
  t_laterin : Rowtab.t;
  t_livein : Rowtab.t;
  t_insert : ((Label.t * Label.t) * Bitvec.t) list;
  t_delete : (Label.t * Bitvec.t) list;
  t_copy : (Label.t * Bitvec.t) list;
}

(* What a restart knows of the change: the captured tail, the local rows
   it was solved with, and the blocks whose local (the patch's [dirty]),
   AVAIL or ANTIC rows may differ from theirs. *)
type change = {
  c_tail : tail;
  c_local : Local.t;
  c_dirty : Label.t list;
  c_avail : Label.t array;
  c_antic : Label.t array;
}

(* Edge (p,b)'s row in the EARLIEST table. *)
let edge_index adj p b =
  let i = if b >= 0 && b < adj.Cfg.adj_bound then Rowtab.index adj.Cfg.adj_pred.(b) p else -1 in
  if i >= 0 then adj.Cfg.adj_pred_off.(b) + i
  else invalid_arg (Printf.sprintf "Lcm_edge: unknown edge B%d->B%d" p b)

(* The block whose CSR row holds edge index [k]: the last [x] with
   [off.(x) <= k], skipping empty rows. *)
let owner off k =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if off.(mid) <= k then go mid hi else go lo mid
  in
  go 0 (Array.length off - 1)

(* EARLIEST(p,b) = ANTIN(b) ∩ ¬KILL(p), where the factor of the source
   alone is KILL(p) = AVOUT(p) ∪ (TRANSP(p) ∩ ANTOUT(p)), the TRANSP ∩
   ANTOUT term dropped when p is the entry.  [kill_into] writes KILL(p)
   into [dst] (ANTOUT is the ANTIC system's meet side, recomputed from
   the successors' ANTIN rows), [earliest_into] EARLIEST(p,b) from it. *)
let kill_into dst nw entry transp avail antic p =
  let av = avail.Avail.avout_rows in
  let vp = rpage av p and vo = roff av p in
  if Label.equal p entry then Array.blit vp vo dst 0 nw
  else begin
    antic.Antic.antout_into dst p;
    let tp = rpage transp p and tro = roff transp p in
    for w = 0 to nw - 1 do
      dst.(w) <- vp.(vo + w) lor (tp.(tro + w) land dst.(w))
    done
  end

let earliest_into dst o nw antic kill b =
  let ai = antic.Antic.antin_rows in
  let ap = rpage ai b and ao = roff ai b in
  for w = 0 to nw - 1 do
    dst.(o + w) <- ap.(ao + w) land lnot kill.(w)
  done

(* EARLIEST(p,b) into row [k] of [e]: in place in a fresh table, through a
   store in a copy-on-write one. *)
let set_earliest e acc nw antic kill k b =
  if e.Rowtab.cow then begin
    earliest_into acc 0 nw antic kill b;
    ignore (Rowtab.store e k acc)
  end
  else earliest_into (rpage e k) (roff e k) nw antic kill b

(* INSERT(p,s) = LATER(p,s) ∩ ¬LATERIN(s)
               = (EARLIEST(p,s) ∪ (LATERIN(p) ∩ ¬ANTLOC(p))) ∩ ¬LATERIN(s)
   for the j-th successor s of p, from the tables [e], [l] and [antloc],
   into [acc]. *)
let insert_into acc nw adj e l antloc p j =
  let s = adj.Cfg.adj_succ.(p).(j) in
  let k = adj.Cfg.adj_pred_off.(s) + Rowtab.index adj.Cfg.adj_pred.(s) p in
  let ep = rpage e k and eo = roff e k in
  let pp = rpage l p and po = roff l p and sp = rpage l s and so = roff l s in
  let al = rpage antloc p and ao = roff antloc p in
  for w = 0 to nw - 1 do
    acc.(w) <- (ep.(eo + w) lor (pp.(po + w) land lnot al.(ao + w))) land lnot sp.(so + w)
  done

(* DELETE(b) = ANTLOC(b) ∩ ¬LATERIN(b), for b ≠ ENTRY only: the entry has
   no incoming edges, so no insertion could ever cover a deletion there
   (its LATERIN is the ∅ boundary, not a data-flow result). *)
let delete_into acc nw entry l antloc b =
  if Label.equal b entry then Array.fill acc 0 nw 0
  else begin
    let al = rpage antloc b and ao = roff antloc b in
    let lp = rpage l b and lo = roff l b in
    for w = 0 to nw - 1 do
      acc.(w) <- al.(ao + w) land lnot lp.(lo + w)
    done
  end

let rec nonzero r nw w = w < nw && (Array.unsafe_get r w <> 0 || nonzero r nw (w + 1))

(* The state of one tail solve: the graph's shape, the new local rows, the
   tables and word buffers on the work arena. *)
type st = {
  adj : Cfg.adjacency;
  entry : Label.t;
  nw : int;
  antloc : Rowtab.t;
  e : Rowtab.t;
  l : Rowtab.t;
  livein : Rowtab.t;
  acc : int array;
  kill : int array;
  full : int array;
}

(* EARLIEST of every out-edge of [p]. *)
let set_earliest_from st avail antic transp p =
  let adj = st.adj in
  let succs = adj.Cfg.adj_succ.(p) in
  if Array.length succs > 0 then begin
    kill_into st.kill st.nw st.entry transp avail antic p;
    for j = 0 to Array.length succs - 1 do
      let s = succs.(j) in
      set_earliest st.e st.acc st.nw antic st.kill (adj.Cfg.adj_pred_off.(s) + Rowtab.index adj.Cfg.adj_pred.(s) p) s
    done
  end

(* Every edge into and out of [x]. *)
let set_earliest_around st avail antic transp x =
  let adj = st.adj in
  for i = 0 to Array.length adj.Cfg.adj_pred.(x) - 1 do
    let p = adj.Cfg.adj_pred.(x).(i) in
    kill_into st.kill st.nw st.entry transp avail antic p;
    set_earliest st.e st.acc st.nw antic st.kill (adj.Cfg.adj_pred_off.(x) + i) x
  done;
  set_earliest_from st avail antic transp x

(* One LATERIN visit:

     LATERIN(b) = ⋂ over edges (p,b) of EARLIEST(p,b) ∪ (LATERIN(p) ∩ ¬ANTLOC(p))

   one word loop per predecessor into the accumulator, then one
   compare-and-store into the row; whether it changed. *)
let laterin_visit st b =
  let acc = st.acc and nw = st.nw in
  Array.blit st.full 0 acc 0 nw;
  let preds = st.adj.Cfg.adj_pred.(b) and off = st.adj.Cfg.adj_pred_off.(b) in
  for i = 0 to Array.length preds - 1 do
    let p = preds.(i) in
    let ep = rpage st.e (off + i) and eo = roff st.e (off + i) in
    let lp = rpage st.l p and lo = roff st.l p in
    let al = rpage st.antloc p and ao = roff st.antloc p in
    for w = 0 to nw - 1 do
      acc.(w) <- acc.(w) land (ep.(eo + w) lor (lp.(lo + w) land lnot al.(ao + w)))
    done
  done;
  Rowtab.store st.l b acc

let push_delay st q b = if st.adj.Cfg.adj_rpo_pos.(b) >= 0 && b <> st.entry then Rowtab.push q b

(* The greatest fixpoint, worklist-driven: LATERIN(b) depends only on
   LATERIN of its predecessors, so when a block's row shrinks only its
   successors need re-visiting.  Returns (sweeps, visits): the most visits
   of any one block, and all visits. *)
let laterin_drain work st q bound =
  let visits = ref 0 and sweeps = ref 0 and count = Arena.alloc_stamps work (max 1 bound) in
  while not (Rowtab.is_empty q) do
    let b = Rowtab.pop q in
    incr visits;
    let c = Arena.count count b + 1 in
    Arena.set_count count b c;
    if c > !sweeps then sweeps := c;
    if laterin_visit st b then begin
      let succs = st.adj.Cfg.adj_succ.(b) in
      for j = 0 to Array.length succs - 1 do
        push_delay st q succs.(j)
      done
    end
  done;
  (!sweeps, !visits)

(* The restart's lift, for the ∩ system: a lifted block's bits moved up
   to the start (all-ones).  A successor d of a lifted block r takes the
   raised bits that edge (r,d) passes — r does not compute them locally,
   so LATERIN(r) flows through — and that are still clear at d.  Every
   lifted block and every successor of one is queued. *)
let laterin_propagate st q lf =
  let mask = lf.Rowtab.mask and nw = st.nw in
  let rec loop () =
    let r = Rowtab.next_lifted lf in
    if r >= 0 then begin
      push_delay st q r;
      let old = Rowtab.base_page st.l r and ro = roff st.l r in
      let al = rpage st.antloc r and ao = roff st.antloc r in
      let succs = st.adj.Cfg.adj_succ.(r) in
      for j = 0 to Array.length succs - 1 do
        let d = succs.(j) in
        if not (Label.equal d st.entry) then begin
          push_delay st q d;
          let rp = rpage st.l r and dp = rpage st.l d and o = roff st.l d in
          for w = 0 to nw - 1 do
            mask.(w) <- (rp.(ro + w) lxor old.(ro + w)) land lnot al.(ao + w) land lnot dp.(o + w)
          done;
          if Rowtab.lift st.l d mask ~up:true then Rowtab.note lf d
        end
      done;
      loop ()
    end
  in
  loop ()

(* [old] (ascending by [key]) with the entries at the ascending [keys]
   replaced by [entry k x], [x] the entry [old] had at [k] if any
   ([None]: dropped); the suffix past the last key is shared. *)
let rec merge key entry old keys =
  match keys with
  | [] -> old
  | k :: ks ->
    (match old with
    | x :: rest when key x < k -> x :: merge key entry rest keys
    | x :: rest when key x = k -> cons_opt (entry k (Some x)) (merge key entry rest ks)
    | _ -> cons_opt (entry k None) (merge key entry old ks))

and cons_opt x rest = match x with Some x -> x :: rest | None -> rest

(* A set as a list entry: the captured vector when it did not change, so
   a rewrite memoised under it still matches, else a new one. *)
let set_entry ~export work n nw acc key old =
  match old with
  | Some ((_, v) as x) when not (Rowtab.differs acc 0 (Bitvec.words v) 0 nw 0) -> x
  | Some _ | None ->
    let v = if export then Bitvec.create n else Arena.alloc work n in
    Array.blit acc 0 (Bitvec.words v) 0 nw;
    (key, v)

(* A captured set as wide as a pool that has grown since. *)
let widen ~export work n ((key, v) as x) =
  if Bitvec.length v = n then x
  else begin
    let w = if export then Bitvec.create n else Arena.alloc work n in
    Array.blit (Bitvec.words v) 0 (Bitvec.words w) 0 (Bitvec.words_for (Bitvec.length v));
    (key, w)
  end

(* The tail of the cascade on [g], from scratch ([change] = [None], or a
   capture of another shape) or as a restart from [change].  Bookkeeping
   comes from [work]; fresh tables too, unless [export] asks for heap
   tables, as a capture or a caller without an arena needs them. *)
let solve_tail ~export ~work g local avail antic change =
  let adj = Cfg.adjacency g in
  let n = Local.nbits local in
  let nw = Bitvec.words_for n and bound = adj.Cfg.adj_bound in
  let nedges = adj.Cfg.adj_pred_off.(bound) in
  let entry = Cfg.entry g in
  let antloc = Local.antloc_rows local and comp = Local.comp_rows local and transp = Local.transp_rows local in
  let restart = match change with Some c when c.c_tail.t_adj == adj -> Some c | Some _ | None -> None in
  let full = Bitvec.words (Arena.alloc_full work n) and zero = Bitvec.words (Arena.alloc work n) in
  let table captured count init =
    match restart with
    | Some c -> Rowtab.cow work (captured c.c_tail) ~count init
    | None -> Rowtab.create (if export then None else work) ~nw ~count init
  in
  let st =
    {
      adj;
      entry;
      nw;
      antloc;
      e = table (fun t -> t.t_earliest) nedges zero;
      l = table (fun t -> t.t_laterin) bound full;
      livein = table (fun t -> t.t_livein) bound zero;
      acc = Arena.alloc_int work (max 1 nw);
      kill = Arena.alloc_int work (max 1 nw);
      full;
    }
  in
  let changed_antloc l =
    match restart with
    | Some c ->
      let old = Local.antloc_rows c.c_local in
      Rowtab.differs (rpage antloc l) (roff antloc l) (rpage old l) (roff old l) nw 0
    | None -> true
  in
  (* EARLIEST: every edge, or the edges next to a block whose AVOUT, TRANSP,
     ANTOUT or ANTIN row changed. *)
  Trace.span "lcm.earliest" (fun () ->
      match restart with
      | None ->
        for p = 0 to bound - 1 do
          set_earliest_from st avail antic transp p
        done
      | Some c ->
        let around = set_earliest_around st avail antic transp in
        List.iter around c.c_dirty;
        Array.iter around c.c_avail;
        Array.iter around c.c_antic);
  Rowtab.seal st.e;
  let q = Rowtab.queue work bound and lf = Rowtab.lifts work bound nw in
  let mask = lf.Rowtab.mask in
  (* LATERIN: from the start (every row all-ones but the entry's ∅
     boundary, every reachable block queued in reverse postorder), or
     lifted and seeded from the edges whose EARLIEST changed and the blocks
     whose ANTLOC changed. *)
  let later_sweeps, later_visits =
    Trace.span_attrs "lcm.delay" (fun () ->
        (match restart with
        | None ->
          ignore (Rowtab.store st.l entry zero);
          Array.iter (push_delay st q) adj.Cfg.adj_rpo
        | Some c ->
          let e0 = c.c_tail.t_earliest in
          for j = 0 to Rowtab.nchanged st.e - 1 do
            let k = Rowtab.changed st.e j in
            let b = owner adj.Cfg.adj_pred_off k in
            let e1p = rpage st.e k and e0p = rpage e0 k and o = roff st.e k in
            for w = 0 to nw - 1 do
              mask.(w) <- e1p.(o + w) land lnot e0p.(o + w)
            done;
            if (not (Label.equal b entry)) && Rowtab.lift st.l b mask ~up:true then Rowtab.note lf b;
            push_delay st q b
          done;
          let old_antloc = Local.antloc_rows c.c_local in
          List.iter
            (fun p ->
              if changed_antloc p then begin
                let a1 = rpage antloc p and a0 = rpage old_antloc p and o = roff antloc p in
                for w = 0 to nw - 1 do
                  mask.(w) <- a0.(o + w) land lnot a1.(o + w)
                done;
                Array.iter
                  (fun b ->
                    if (not (Label.equal b entry)) && Rowtab.lift st.l b mask ~up:true then Rowtab.note lf b;
                    push_delay st q b)
                  adj.Cfg.adj_succ.(p)
              end)
            c.c_dirty;
          laterin_propagate st q lf);
        let ((sweeps, visits) as r) = laterin_drain work st q bound in
        (r, [ ("sweeps", string_of_int sweeps); ("visits", string_of_int visits) ]))
  in
  Rowtab.seal st.l;
  let e = st.e and l = st.l in
  let tmp = Arena.alloc_int work (max 1 nw) and tmp2 = Arena.alloc_int work (max 1 nw) in
  let sys =
    {
      Copy_analysis.adj;
      nw;
      comp;
      transp;
      del = (fun buf b -> delete_into buf nw entry l antloc b);
      ins = (fun buf p j -> insert_into buf nw adj e l antloc p j);
      livein = st.livein;
      acc = st.acc;
      tmp;
      tmp2;
    }
  in
  (* INSERT and DELETE where EARLIEST, ANTLOC or LATERIN moved: the old and
     new sets of each such edge and block, compared; a restart lifts the
     liveness where one changed. *)
  let ins_changed, del_changed =
    Trace.span "lcm.latest" (fun () ->
        match restart with
        | None -> ([], [])
        | Some c ->
          let e0 = c.c_tail.t_earliest and l0 = c.c_tail.t_laterin and old_antloc = Local.antloc_rows c.c_local in
          let seen_edge = Arena.alloc_stamps work (max 1 nedges) and seen = Arena.alloc_stamps work bound in
          let ins_changed = ref [] and del_changed = ref [] in
          let edge p j =
            let k = adj.Cfg.adj_succ_off.(p) + j in
            if not (Arena.is_set seen_edge k) then begin
              Arena.set seen_edge k;
              insert_into st.acc nw adj e l antloc p j;
              insert_into tmp nw adj e0 l0 old_antloc p j;
              if Rowtab.differs st.acc 0 tmp 0 nw 0 then begin
                ins_changed := k :: !ins_changed;
                (* INSERT gained bits: LIVEOUT(p) may lose them. *)
                for w = 0 to nw - 1 do
                  mask.(w) <- st.acc.(w) land lnot tmp.(w)
                done;
                if Rowtab.lift st.livein p mask ~up:false then Rowtab.note lf p;
                Copy_analysis.push_reachable sys q p
              end
            end
          in
          let out_edges p = Array.iteri (fun j _ -> edge p j) adj.Cfg.adj_succ.(p) in
          let in_edges b = Array.iter (fun p -> edge p (Rowtab.index adj.Cfg.adj_succ.(p) b)) adj.Cfg.adj_pred.(b) in
          let block b =
            if not (Arena.is_set seen b) then begin
              Arena.set seen b;
              delete_into st.acc nw entry l antloc b;
              delete_into tmp nw entry l0 old_antloc b;
              if Rowtab.differs st.acc 0 tmp 0 nw 0 then begin
                del_changed := b :: !del_changed;
                (* DELETE lost bits: LIVEIN(b) may lose them. *)
                for w = 0 to nw - 1 do
                  mask.(w) <- tmp.(w) land lnot st.acc.(w)
                done;
                if Rowtab.lift st.livein b mask ~up:false then Rowtab.note lf b;
                Copy_analysis.push_reachable sys q b
              end
            end
          in
          for j = 0 to Rowtab.nchanged e - 1 do
            in_edges (owner adj.Cfg.adj_pred_off (Rowtab.changed e j))
          done;
          List.iter
            (fun p ->
              if changed_antloc p then begin
                out_edges p;
                block p
              end)
            c.c_dirty;
          for j = 0 to Rowtab.nchanged l - 1 do
            let b = Rowtab.changed l j in
            out_edges b;
            in_edges b;
            block b
          done;
          (!ins_changed, !del_changed))
  in
  (* The temporaries' liveness: from ∅ with the deleting blocks queued,
     or, on a restart, lifted also where COMP gained bits (the lifts for
     INSERT and DELETE are in already). *)
  let live_visits =
    Trace.span "lcm.live" (fun () ->
        (match restart with
        | None ->
          Array.iter
            (fun b ->
              delete_into st.acc nw entry l antloc b;
              if nonzero st.acc nw 0 then Copy_analysis.push_reachable sys q b)
            adj.Cfg.adj_labels
        | Some c ->
          let old_comp = Local.comp_rows c.c_local in
          List.iter
            (fun b ->
              let c1 = rpage comp b and c0 = rpage old_comp b and o = roff comp b in
              for w = 0 to nw - 1 do
                mask.(w) <- c1.(o + w) land lnot c0.(o + w)
              done;
              if Rowtab.lift st.livein b mask ~up:false then Rowtab.note lf b;
              Copy_analysis.push_reachable sys q b)
            c.c_dirty;
          Copy_analysis.propagate_lift sys q lf);
        Copy_analysis.drain sys q)
  in
  Rowtab.seal st.livein;
  (* The lists of non-empty sets: built in order from scratch, or the
     captured lists with the changed sets merged in. *)
  let insert_of p j old =
    insert_into st.acc nw adj e l antloc p j;
    if nonzero st.acc nw 0 then Some (set_entry ~export work n nw st.acc (p, adj.Cfg.adj_succ.(p).(j)) old) else None
  in
  let insert_at k old =
    let p = owner adj.Cfg.adj_succ_off k in
    insert_of p (k - adj.Cfg.adj_succ_off.(p)) old
  in
  let delete_at b old =
    delete_into st.acc nw entry l antloc b;
    if nonzero st.acc nw 0 then Some (set_entry ~export work n nw st.acc b old) else None
  in
  let copy_at b old = if Copy_analysis.copy_row sys b then Some (set_entry ~export work n nw st.acc b old) else None in
  let insert, delete, copy =
    Trace.span "lcm.copy" (fun () ->
        match restart with
        | None ->
          let insert = ref [] in
          for p = bound - 1 downto 0 do
            for j = Array.length adj.Cfg.adj_succ.(p) - 1 downto 0 do
              match insert_of p j None with Some x -> insert := x :: !insert | None -> ()
            done
          done;
          let labels_down f = Array.fold_right (fun b acc -> cons_opt (f b None) acc) adj.Cfg.adj_labels [] in
          (!insert, labels_down delete_at, labels_down copy_at)
        | Some c ->
          let t = c.c_tail in
          let edge_key ((p, s), _) = adj.Cfg.adj_succ_off.(p) + Rowtab.index adj.Cfg.adj_succ.(p) s in
          let insert = merge edge_key insert_at t.t_insert (List.sort_uniq compare ins_changed) in
          let delete = merge fst delete_at t.t_delete (List.sort_uniq compare del_changed) in
          (* COPY reads COMP, TRANSP and DELETE of its block, LIVEIN of its
             successors and INSERT of its out-edges. *)
          let touched = ref (List.rev_append del_changed c.c_dirty) in
          for j = 0 to Rowtab.nchanged st.livein - 1 do
            Array.iter (fun p -> touched := p :: !touched) adj.Cfg.adj_pred.(Rowtab.changed st.livein j)
          done;
          List.iter (fun k -> touched := owner adj.Cfg.adj_succ_off k :: !touched) ins_changed;
          let copy = merge fst copy_at t.t_copy (List.sort_uniq compare !touched) in
          if t.t_nbits = n then (insert, delete, copy)
          else
            (* Appended columns: every set is as wide as the pool. *)
            let widen l = List.map (widen ~export work n) l in
            (widen insert, widen delete, widen copy))
  in
  ( { t_adj = adj; t_nbits = n; t_earliest = e; t_laterin = l; t_livein = st.livein; t_insert = insert; t_delete = delete; t_copy = copy },
    later_sweeps,
    later_visits,
    live_visits )

(* The up-safety (forward, AVAIL) and down-safety (backward, ANTIC)
   systems of the cascade; both read only the block-local predicates. *)
let solve_safety_systems ?scratch g local =
  ( Trace.span "lcm.up_safety" (fun () -> Avail.compute ?scratch g local),
    Trace.span "lcm.down_safety" (fun () -> Antic.compute ?scratch g local) )

let earliest_sets ?scratch g local avail antic =
  let adj = Cfg.adjacency g in
  let n = Local.nbits local in
  let nw = Bitvec.words_for n and entry = Cfg.entry g and transp = Local.transp_rows local in
  let kill = Arena.alloc_int scratch (max 1 nw) in
  Cfg.fold_edges adj
    (fun p b acc ->
      let v = Arena.alloc scratch n in
      kill_into kill nw entry transp avail antic p;
      earliest_into (Bitvec.words v) 0 nw antic kill b;
      if nonzero (Bitvec.words v) nw 0 then ((p, b), v) :: acc else acc)
    []

(* The bookkeeping arena: [scratch], or one checked out for the call. *)
let with_work scratch g nbits f =
  match scratch with
  | Some _ -> f scratch
  | None -> Scratch.with_arena ~blocks:(Cfg.label_bound g) ~exprs:nbits (fun a -> f (Some a))

(* Span names follow the paper's cascade: down-safety (ANTIC), earliestness,
   delay (LATERIN), latestness — the four phases a trace of one LCM solve
   must show (the up-safety AVAIL system rides along as "lcm.up_safety",
   the temporaries' liveness and the copies that follow as "lcm.live" and
   "lcm.copy").  [keep] puts the tables on the heap, for a capture;
   [work] backs the bookkeeping, [scratch] the LATER sets the analysis
   hands out. *)
let finish ?scratch ?ranked ~work ~keep g pool local avail antic change =
  let export = keep || Option.is_none scratch in
  let tail, later_sweeps, later_visits, live_visits = solve_tail ~export ~work g local avail antic change in
  let n = Local.nbits local in
  let nw = Bitvec.words_for n and adj = tail.t_adj in
  let antloc = Local.antloc_rows local in
  let laterin l =
    if Cfg.mem g l && l < adj.Cfg.adj_bound then Rowtab.to_bitvec tail.t_laterin l n
    else invalid_arg (Printf.sprintf "Lcm_edge.laterin: unknown label B%d" l)
  in
  let earliest (p, b) = Rowtab.to_bitvec tail.t_earliest (edge_index adj p b) n in
  let later (p, b) =
    let k = edge_index adj p b in
    let v = Arena.alloc scratch n in
    let dst = Bitvec.words v and e = tail.t_earliest and l = tail.t_laterin in
    let ep = rpage e k and eo = roff e k and lp = rpage l p and lo = roff l p in
    let al = rpage antloc p and ao = roff antloc p in
    for w = 0 to nw - 1 do
      dst.(w) <- ep.(eo + w) lor (lp.(lo + w) land lnot al.(ao + w))
    done;
    v
  in
  ( {
      pool;
      local;
      avail;
      antic;
      earliest;
      later;
      laterin;
      insert = tail.t_insert;
      delete = tail.t_delete;
      copy = tail.t_copy;
      sweeps = avail.Avail.sweeps + antic.Antic.sweeps + later_sweeps;
      visits = avail.Avail.visits + antic.Antic.visits + later_visits;
      delay_visits = later_visits;
      live_visits;
      ranked;
    },
    tail )

(* The candidate pool, built (and timed as "lcm.pool") unless the caller
   supplies one. *)
let candidate_pool g = Trace.span "lcm.pool" (fun () -> Cfg.candidate_pool g)

let analyze ?pool ?scratch g =
  let pool = match pool with Some p -> p | None -> candidate_pool g in
  let local = Trace.span "lcm.local" (fun () -> Local.compute ?scratch g pool) in
  let avail, antic = solve_safety_systems ?scratch g local in
  with_work scratch g (Local.nbits local) (fun work ->
      fst (finish ?scratch ~work ~keep:false g pool local avail antic None))

(* --- incremental analysis ------------------------------------------------

   A capture holds everything a delta needs to restart the cascade from
   the rows a patch changed: the candidate pool, the local predicate rows
   (with their kill masks), the AVAIL/ANTIC fixpoints and an occurrence
   index of the pool.  EARLIEST, the LATERIN delay fixpoint, latestness and
   the copies are recomputed from those rows, on the request's arena.

   Bit indices are append-only across a capture's deltas.  No solution of
   the cascade reads another expression's bit, so an expression's index is
   arbitrary; only the temporaries' names and the order of an edge's
   insertions show the pool's order, which is the order of first
   occurrence (blocks in label order, instructions in order).  So:
   - a candidate the pool lacks is appended as a new bit of a copy of the
     pool ({!Cfg.extend_numbering}), whose column starts all-zero in every
     captured row: the old system's fixpoint for an expression no block
     computes, when every block reaches the exit (docs/ALGORITHM.md);
   - an expression with no occurrence left keeps its bit, dead: its
     ANTLOC and COMP rows are empty, and the restarts clear the rest;
   - a rank per bit (its position in first-occurrence order among the
     live bits) names the temporaries and orders the insertions, so the
     bytes are those a from-scratch solve gives.
   The occurrence index decides the ranks from the dirty blocks alone: per
   block, its distinct pool indices in order of first occurrence; per
   expression, the key of its first occurrence (block, rank within the
   block) and the blocks that compute it.  After a patch only the
   expressions of the dirty blocks' old and new bodies can move; the ranks
   are unchanged exactly when none of them is new, dead or revived and the
   keys stay increasing in rank order.  A from-scratch solve numbers the
   pool in first-occurrence order, so its ranks are the identity. *)

(* A label- or index-keyed array in pages of [page] cells: an update
   copies the spine and the pages it writes, so an index the size of the
   graph is updated at the cost of what changes. *)
module Paged = struct
  type 'a t = 'a array array

  let page = 256
  let get t i = t.(i / page).(i mod page)
  let length t = match Array.length t with 0 -> 0 | k -> ((k - 1) * page) + Array.length t.(k - 1)

  let init n f =
    Array.init ((n + page - 1) / page) (fun k -> Array.init (min page (n - (k * page))) (fun i -> f ((k * page) + i)))

  (* [t] grown to [n] cells ([fill] in the new ones) with the cells of
     [sets] replaced; [t] is not written. *)
  let update t n fill sets =
    let spine = if n = length t then Array.copy t else init n (fun i -> if i < length t then get t i else fill) in
    List.iter
      (fun (i, x) ->
        let k = i / page in
        if k < Array.length t && spine.(k) == t.(k) then spine.(k) <- Array.copy t.(k);
        spine.(k).(i mod page) <- x)
      sets;
    spine
end

(* The identity ranking, compared physically. *)
let identity : int array = [||]

type occurrences = {
  blk : int array Paged.t;  (* label -> distinct pool indices, first-occurrence order *)
  key : int Paged.t;  (* index -> first occurrence, [label lsl key_shift lor rank]; [dead] when none *)
  blocks : int array Paged.t;  (* index -> labels of the blocks computing it, ascending *)
  rank : int array;  (* index -> rank among the live indices by key, -1 dead; or [identity] *)
  order : int array;  (* rank -> index; [identity] with [rank] *)
}

let key_shift = 30
let dead = max_int

(* Block [l]'s distinct pool indices in order of first occurrence; the
   pool holds every candidate of the block.  [seen] is a stamp per pool
   index, [stamp] this scan's. *)
let block_exprs pool seen stamp g l =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | i :: rest ->
      (match Lcm_ir.Instr.candidate i with
      | None -> go acc rest
      | Some e ->
        let idx = Expr_pool.index_exn pool e in
        if seen.(idx) = stamp then go acc rest
        else begin
          seen.(idx) <- stamp;
          go (idx :: acc) rest
        end)
  in
  go [] (Cfg.instrs g l)

let rec rank arr e i = if arr.(i) = e then i else rank arr e (i + 1)

let occurrences g pool =
  let n = Expr_pool.size pool and bound = Cfg.label_bound g in
  let seen = Array.make n (-1) in
  let blk = Array.make bound [||] in
  Cfg.iter_labels g (fun l -> blk.(l) <- block_exprs pool seen l g l);
  let key = Array.make n (-1) and count = Array.make n 0 in
  for l = 0 to bound - 1 do
    Array.iteri
      (fun r e ->
        if key.(e) < 0 then key.(e) <- (l lsl key_shift) lor r;
        count.(e) <- count.(e) + 1)
      blk.(l)
  done;
  let blocks = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  for l = 0 to bound - 1 do
    Array.iter
      (fun e ->
        blocks.(e).(count.(e)) <- l;
        count.(e) <- count.(e) + 1)
      blk.(l)
  done;
  {
    blk = Paged.init bound (Array.get blk);
    key = Paged.init n (Array.get key);
    blocks = Paged.init n (Array.get blocks);
    rank = identity;
    order = identity;
  }

(* The live indices of [key] (of [n]) sorted by key: [(identity,
   identity)] when that is every index in index order. *)
let ranks key n =
  let live = ref 0 in
  for e = 0 to n - 1 do
    if Paged.get key e <> dead then incr live
  done;
  let order = Array.make !live 0 and j = ref 0 in
  for e = 0 to n - 1 do
    if Paged.get key e <> dead then begin
      order.(!j) <- e;
      incr j
    end
  done;
  Array.sort (fun a b -> compare (Paged.get key a) (Paged.get key b)) order;
  let rec ordered i = i >= n || (order.(i) = i && ordered (i + 1)) in
  if !live = n && ordered 0 then (identity, identity)
  else begin
    let rank = Array.make n (-1) in
    Array.iteri (fun r e -> rank.(e) <- r) order;
    (rank, order)
  end

(* The candidates of the [dirty] blocks that [nb]'s pool lacks, canonical,
   in order of first occurrence there; [None] when one of them reads a
   name [nb]'s table lacks. *)
let missing nb g dirty =
  let pool = Cfg.numbering_pool nb in
  let known = function Lcm_ir.Expr.Var v -> Cfg.numbering_var nb v >= 0 | Lcm_ir.Expr.Const _ -> true in
  let note acc i =
    match (acc, Lcm_ir.Instr.candidate i) with
    | None, _ | _, None -> acc
    | Some es, Some e ->
      (match Expr_pool.index_exn pool e with
      | _ -> acc
      | exception Not_found ->
        let e = Lcm_ir.Expr.canonical e in
        (match e with
        | (Lcm_ir.Expr.Atom a | Lcm_ir.Expr.Unary (_, a)) when not (known a) -> None
        | Lcm_ir.Expr.Binary (_, a, b) when not (known a && known b) -> None
        | _ -> if List.exists (Lcm_ir.Expr.equal e) es then acc else Some (e :: es)))
  in
  Option.map List.rev (List.fold_left (fun acc l -> List.fold_left note acc (Cfg.instrs g l)) (Some []) dirty)

(* The occurrence index of the patched graph [g] over [pool] — the
   capture's, or an extension of it holding every candidate of the
   [dirty] blocks — decided from the bodies of the dirty blocks alone,
   with the ranks of its indices.  The new index shares every page the
   patch did not touch with [occ], and the ranks too when no expression
   is new, dead or revived and no first occurrence moved past another. *)
let repatch_occurrences ~work occ pool g dirty =
  let n = Expr_pool.size pool and bound = Cfg.label_bound g in
  let n0 = Paged.length occ.key and old_bound = Paged.length occ.blk in
  let is_dirty l = List.mem l dirty in
  let seen = Arena.alloc_int work n in
  Array.fill seen 0 n (-1);
  let fresh = List.map (fun l -> (l, block_exprs pool seen l g l)) dirty in
  (* The expressions that can move: those of the dirty blocks' old and
     new bodies.  [seen] now marks them with [bound]. *)
  let affected = ref [] in
  let note e =
    if seen.(e) <> bound then begin
      seen.(e) <- bound;
      affected := e :: !affected
    end
  in
  List.iter
    (fun (l, arr) ->
      if l < old_bound then Array.iter note (Paged.get occ.blk l);
      Array.iter note arr)
    fresh;
  let old_blocks e = if e < n0 then Paged.get occ.blocks e else [||] in
  let keys =
    List.map
      (fun e ->
        let old_first =
          let bs = old_blocks e in
          let rec first i =
            if i >= Array.length bs then dead else if is_dirty bs.(i) then first (i + 1) else bs.(i)
          in
          let b = first 0 in
          if b = dead then dead else (b lsl key_shift) lor rank (Paged.get occ.blk b) e 0
        in
        let new_first =
          match List.find_opt (fun (_, arr) -> Array.mem e arr) fresh with
          | Some (l, arr) -> (l lsl key_shift) lor rank arr e 0
          | None -> dead
        in
        (e, min old_first new_first))
      !affected
  in
  let key = Paged.update occ.key n dead keys in
  (* The ranks stand while every affected key keeps its liveness and
     stays between its neighbours in rank order: only pairs next to a
     moved key can have changed. *)
  let rank_of e = if occ.rank == identity then e else occ.rank.(e) in
  let at r = if occ.order == identity then r else occ.order.(r) in
  let live = if occ.order == identity then n0 else Array.length occ.order in
  let kept =
    n = n0
    && List.for_all
         (fun (e, k) ->
           let r = rank_of e in
           (r >= 0) = (k <> dead)
           && (r < 0
              || ((r = 0 || Paged.get key (at (r - 1)) < k) && (r + 1 >= live || Paged.get key (at (r + 1)) > k))))
         keys
  in
  let rank, order = if kept then (occ.rank, occ.order) else ranks key n in
  let blocks =
    Paged.update occ.blocks n [||]
      (List.map
         (fun e ->
           let kept = List.filter (fun b -> not (is_dirty b)) (Array.to_list (old_blocks e)) in
           let added = List.filter_map (fun (l, arr) -> if Array.mem e arr then Some l else None) fresh in
           (e, Array.of_list (List.merge compare kept added)))
         !affected)
  in
  { blk = Paged.update occ.blk bound [||] fresh; key; blocks; rank; order }

(* Whether every block reaches the exit (so the exit, and every block, is
   reachable): then an expression no block computes is neither available
   nor anticipated anywhere, and its all-zero column is the cascade's
   fixpoint. *)
let all_reach_exit work g =
  let adj = Cfg.adjacency g in
  let bound = adj.Cfg.adj_bound and exit = Cfg.exit_label g in
  let seen = Arena.alloc_bool work (max 1 bound) and stack = Arena.alloc_int work (max 1 bound) in
  seen.(exit) <- true;
  stack.(0) <- exit;
  let top = ref 1 and reached = ref 0 in
  while !top > 0 do
    decr top;
    incr reached;
    let preds = adj.Cfg.adj_pred.(stack.(!top)) in
    for i = 0 to Array.length preds - 1 do
      let p = preds.(i) in
      if not seen.(p) then begin
        seen.(p) <- true;
        stack.(!top) <- p;
        incr top
      end
    done
  done;
  !reached = Cfg.num_blocks g

type saved = {
  saved_pool : Expr_pool.t;
  saved_occ : occurrences;
  saved_local : Local.t;
  saved_avail : Lcm_dataflow.Solver.saved;
  saved_antic : Lcm_dataflow.Solver.saved;
  saved_tail : tail;
  saved_exits : bool;  (* [all_reach_exit] of the captured shape *)
  saved_names : (string * string array) option;  (* the prefix and the ranked names, under ranks *)
}

let saved_pool s = s.saved_pool

(* The capture keeps the local rows and the safety fixpoints, so they come
   from the heap; the rest of the cascade runs on [scratch]. *)
let analyze_keep ?scratch g =
  let pool = candidate_pool g in
  let local = Trace.span "lcm.local" (fun () -> Local.compute g pool) in
  let avail, saved_avail = Trace.span "lcm.up_safety" (fun () -> Avail.compute_keep ?scratch g local) in
  let antic, saved_antic = Trace.span "lcm.down_safety" (fun () -> Antic.compute_keep ?scratch g local) in
  let saved_occ = Trace.span "lcm.occurrences" (fun () -> occurrences g pool) in
  let a, saved_tail, saved_exits =
    with_work scratch g (Local.nbits local) (fun work ->
        let a, tail = finish ?scratch ~work ~keep:true g pool local avail antic None in
        (a, tail, all_reach_exit work g))
  in
  ( a,
    { saved_pool = pool; saved_occ; saved_local = local; saved_avail; saved_antic; saved_tail; saved_exits; saved_names = None } )

(* The numbering a delta's analysis scans against: the capture's, or an
   extension of its pool by the candidates the dirty blocks add.  A block
   left alone computes none of them, and writes to names the table lacks
   matter to no candidate, so every block's events stay valid.  [None]
   sends the delta to a from-scratch solve: an added candidate reads a
   name the table lacks, comes with a shape edit, outgrows the row width
   in words, or would start from a column that is not the old fixpoint. *)
let delta_numbering prev g dirty ~same_shape ~exits =
  let nb = Local.numbering prev.saved_local in
  match missing nb g dirty with
  | None -> None
  | Some [] -> Some nb
  | Some es ->
    if not (same_shape && exits) then None
    else
      let nb' = Cfg.extend_numbering nb es in
      if Bitvec.words_for (Expr_pool.size (Cfg.numbering_pool nb')) = Bitvec.words_for (Expr_pool.size prev.saved_pool)
      then Some nb'
      else None

(* The temporaries' names under the ranks of [occ]: none (the identity,
   named by index from {!Temps}), or the capture's when neither the ranks
   nor the prefix moved. *)
let names_for prev g occ =
  if occ.rank == identity then None
  else
    let prefix = Cfg.temp_prefix g in
    match prev.saved_names with
    | Some (p, _) when occ.rank == prev.saved_occ.rank && String.equal p prefix -> prev.saved_names
    | Some _ | None -> Some (prefix, Temps.ranked prefix occ.rank)

(* The safety restarts take the caller's [scratch], as their results
   escape in the analysis; one [work] arena backs the pool check and the
   tail. *)
let analyze_incr ?scratch g ~prev ~dirty =
  let bound = Cfg.label_bound g in
  List.iter
    (fun l ->
      if l < 0 || l >= bound || not (Cfg.mem g l) then
        invalid_arg (Printf.sprintf "Lcm_edge.analyze_incr: dirty label B%d is not a block" l))
    dirty;
  let dirty = List.sort_uniq compare dirty in
  with_work scratch g (Expr_pool.size prev.saved_pool) (fun work ->
      let same_shape = Cfg.adjacency g == prev.saved_tail.t_adj in
      let exits = if same_shape then prev.saved_exits else all_reach_exit work g in
      let repatched =
        Trace.span "lcm.pool" (fun () ->
            Option.map
              (fun nb -> (nb, repatch_occurrences ~work prev.saved_occ (Cfg.numbering_pool nb) g dirty))
              (delta_numbering prev g dirty ~same_shape ~exits))
      in
      match repatched with
      | None -> None
      | Some (nb, saved_occ) ->
        let pool = Cfg.numbering_pool nb in
        let local =
          Trace.span "lcm.local" (fun () -> Local.update ?scratch:work ~numbering:nb ~prev:prev.saved_local g ~dirty)
        in
        (match
           Trace.span "lcm.up_safety" (fun () -> Avail.compute_incr ?scratch g local ~prev:prev.saved_avail ~dirty)
         with
        | None -> None
        | Some (avail, saved_avail, moved_a) ->
          (match
             Trace.span "lcm.down_safety" (fun () ->
                 Antic.compute_incr ?scratch g local ~prev:prev.saved_antic ~dirty)
           with
          | None -> None
          | Some (antic, saved_antic, moved_b) ->
            let change =
              { c_tail = prev.saved_tail; c_local = prev.saved_local; c_dirty = dirty; c_avail = moved_a; c_antic = moved_b }
            in
            let saved_names = names_for prev g saved_occ in
            let ranked = Option.map (fun (_, names) -> (saved_occ.rank, names)) saved_names in
            let a, saved_tail = finish ?scratch ?ranked ~work ~keep:true g pool local avail antic (Some change) in
            Some
              ( a,
                {
                  saved_pool = pool;
                  saved_occ;
                  saved_local = local;
                  saved_avail;
                  saved_antic;
                  saved_tail;
                  saved_exits = exits;
                  saved_names;
                },
                max (Array.length moved_a) (Array.length moved_b) ))))

let spec g a =
  let temp_names, rank = match a.ranked with None -> (Temps.names g a.pool, identity) | Some (rank, names) -> (names, rank) in
  {
    Transform.algorithm = "lcm-edge";
    pool = a.pool;
    temp_names;
    rank;
    edge_inserts = a.insert;
    entry_inserts = [];
    exit_inserts = [];
    deletes = a.delete;
    copies = a.copy;
  }

let transform ?simplify g =
  let a = analyze g in
  Transform.apply ?simplify g (spec g a)

let pass =
  Pass.v "lcm-edge" (fun ctx g ->
      let a = analyze ?scratch:ctx.Pass.scratch g in
      let g', rep = Transform.apply g (spec g a) in
      (g', Pass.report ~sweeps:a.sweeps ~visits:a.visits ~spec:rep.Transform.spec ()))
