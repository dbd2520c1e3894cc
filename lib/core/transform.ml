module Bitvec = Lcm_support.Bitvec
module Label = Lcm_cfg.Label
module Cfg = Lcm_cfg.Cfg
module Validate = Lcm_cfg.Validate
module Expr = Lcm_ir.Expr
module Expr_pool = Lcm_ir.Expr_pool
module Instr = Lcm_ir.Instr

type spec = {
  algorithm : string;
  pool : Expr_pool.t;
  temp_names : string array;
  rank : int array;
  edge_inserts : ((Label.t * Label.t) * Bitvec.t) list;
  entry_inserts : (Label.t * Bitvec.t) list;
  exit_inserts : (Label.t * Bitvec.t) list;
  deletes : (Label.t * Bitvec.t) list;
  copies : (Label.t * Bitvec.t) list;
}

type report = {
  spec : spec;
  num_edge_insertions : int;
  num_entry_insertions : int;
  num_exit_insertions : int;
  num_deletions : int;
  num_copies : int;
  split_blocks : ((Label.t * Label.t) * Label.t) list;
}

let identity_spec pool algorithm =
  {
    algorithm;
    pool;
    temp_names = [||];
    rank = [||];
    edge_inserts = [];
    entry_inserts = [];
    exit_inserts = [];
    deletes = [];
    copies = [];
  }

(* Expression index of an instruction's candidate, if registered. *)
let candidate_index pool i =
  match Instr.candidate i with
  | Some e -> Expr_pool.index pool e
  | None -> None

(* Indices killed by an instruction, under the same conservative kill set
   the local predicates use ([Instr.kills]): the definition, plus — for
   opaque effects — every operand variable.  Keeping the transformer and
   the analysis on one kill relation means "upwards/downwards exposed"
   agree between them by construction. *)
let killed_by pool i =
  match Instr.kills i with
  | [] -> []
  | [ v ] -> Expr_pool.reading pool v
  | vs -> List.concat_map (fun v -> Expr_pool.reading pool v) vs

(* Replace the upwards-exposed occurrence of every expression in [set]
   within block [l] by a read of its temporary. *)
let delete_in pool temps l set instrs =
  let remaining = Bitvec.copy set in
  let killed = Bitvec.create (Bitvec.length set) in
  let deleted = ref 0 in
  let rewrite i =
    let i' =
      match (i, candidate_index pool i) with
      | Instr.Assign (v, _), Some idx when Bitvec.get remaining idx && not (Bitvec.get killed idx) ->
        Bitvec.set remaining idx false;
        incr deleted;
        Instr.Assign (v, Expr.Atom (Expr.Var temps.(idx)))
      | _, _ -> i
    in
    List.iter (fun idx -> Bitvec.set killed idx true) (killed_by pool i);
    i'
  in
  let instrs = List.map rewrite instrs in
  if not (Bitvec.is_empty remaining) then
    failwith
      (Format.asprintf "Transform.apply: block %a has no upwards-exposed occurrence of %a" Label.pp l
         Bitvec.pp remaining);
  (instrs, !deleted)

(* After the downwards-exposed occurrence of every expression in [set]
   within block [l], add [h := v].  The downwards-exposed occurrence of [e]
   is the last computation of [e] not followed by an operand kill. *)
let copy_in pool temps l set instrs =
  let instrs = Array.of_list instrs in
  let n = Array.length instrs in
  let nbits = Bitvec.length set in
  (* last_occurrence.(idx) = position of the downwards-exposed occurrence *)
  let last = Array.make nbits (-1) in
  let valid = Bitvec.create nbits in
  for pos = 0 to n - 1 do
    (match candidate_index pool instrs.(pos) with
    | Some idx ->
      last.(idx) <- pos;
      Bitvec.set valid idx true
    | None -> ());
    List.iter (fun idx -> Bitvec.set valid idx false) (killed_by pool instrs.(pos))
  done;
  (* copies_at.(pos) lists temp assignments to place directly after pos. *)
  let copies_at = Array.make n [] in
  let count = ref 0 in
  Bitvec.iter_true
    (fun idx ->
      if not (Bitvec.get valid idx) then
        failwith
          (Format.asprintf "Transform.apply: block %a has no downwards-exposed occurrence of expression %d"
             Label.pp l idx);
      let pos = last.(idx) in
      match instrs.(pos) with
      | Instr.Assign (v, _) ->
        copies_at.(pos) <- Instr.Assign (temps.(idx), Expr.Atom (Expr.Var v)) :: copies_at.(pos);
        incr count
      | Instr.Print _ | Instr.Effect _ -> assert false)
    set;
  let out = ref [] in
  for pos = n - 1 downto 0 do
    out := (instrs.(pos) :: List.rev copies_at.(pos)) @ !out
  done;
  (!out, !count)

(* Block [l]'s deletions, then its copies (each set may be empty), as one
   rewrite memoised on the block ({!Cfg.rewrite}): a block whose sets did
   not change since the rewrite of the same record reuses its result. *)
let rewrite_block g pool temps l ~deletes ~copies =
  Cfg.rewrite g l { Cfg.rw_deletes = deletes; rw_copies = copies; rw_pool = pool; rw_temps = temps } (fun instrs ->
      let instrs, deleted = if Bitvec.is_empty deletes then (instrs, 0) else delete_in pool temps l deletes instrs in
      let instrs, copied = if Bitvec.is_empty copies then (instrs, 0) else copy_in pool temps l copies instrs in
      (instrs, deleted, copied))

let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

let by_label l = if ascending l then l else List.stable_sort (fun (a, _) (b, _) -> compare a b) l

(* The deletion and copy sets merged by label, one rewrite per block;
   the counts, and the rewritten labels (descending). *)
let rewrite_blocks g pool temps deletes copies =
  let empty = Bitvec.create (Expr_pool.size pool) in
  let rec go nd nc ls ds cs =
    match (ds, cs) with
    | [], [] -> (nd, nc, ls)
    | (l, d) :: ds', (l', c) :: cs' when l = l' ->
      let d', c' = rewrite_block g pool temps l ~deletes:d ~copies:c in
      go (nd + d') (nc + c') (l :: ls) ds' cs'
    | (l, d) :: ds', (l', _) :: _ when l < l' ->
      let d', _ = rewrite_block g pool temps l ~deletes:d ~copies:empty in
      go (nd + d') nc (l :: ls) ds' cs
    | (l, d) :: ds', [] ->
      let d', _ = rewrite_block g pool temps l ~deletes:d ~copies:empty in
      go (nd + d') nc (l :: ls) ds' cs
    | _, (l, c) :: cs' ->
      let _, c' = rewrite_block g pool temps l ~deletes:empty ~copies:c in
      go nd (nc + c') (l :: ls) ds cs'
  in
  go 0 0 [] (by_label deletes) (by_label copies)

(* The index of [set] with the greatest rank below [bound], or -1: the
   set's words [ws] from word [w] on, [x] the bits of word [w] still to
   look at, [best] the best so far. *)
let rec below rank ws nw bound w x best =
  if x = 0 then if w + 1 >= nw then best else below rank ws nw bound (w + 1) ws.(w + 1) best
  else
    let i = (w * Bitvec.bits_per_word) + Bitvec.ntz x in
    let r = rank.(i) in
    let best = if r < bound && (best < 0 || r > rank.(best)) then i else best in
    below rank ws nw bound w (x land (x - 1)) best

(* The insertions of [set], in index order or, under a [rank], in rank
   order: built from the greatest rank down, a scan of the set's few bits
   per insertion, so nothing is allocated but the list. *)
let insertion_instrs pool temps rank set =
  if Array.length rank = 0 then
    List.rev
      (Bitvec.fold_true
         (fun idx acc -> Instr.Assign (temps.(idx), Expr_pool.expr pool idx) :: acc)
         set [])
  else begin
    let ws = Bitvec.words set and nw = Bitvec.words_for (Bitvec.length set) in
    let rec build bound acc =
      match if nw = 0 then -1 else below rank ws nw bound 0 ws.(0) (-1) with
      | -1 -> acc
      | i -> build rank.(i) (Instr.Assign (temps.(i), Expr_pool.expr pool i) :: acc)
    in
    build max_int []
  end

let apply ?(simplify = false) input spec =
  let g = Cfg.copy input in
  let pool = spec.pool and temps = spec.temp_names in
  let num_deletions, num_copies, rewritten = rewrite_blocks g pool temps spec.deletes spec.copies in
  let num_entry_insertions =
    List.fold_left
      (fun acc (l, set) ->
        let is = insertion_instrs pool temps spec.rank set in
        Cfg.set_instrs g l (is @ Cfg.instrs g l);
        acc + List.length is)
      0 spec.entry_inserts
  in
  let num_exit_insertions =
    List.fold_left
      (fun acc (l, set) ->
        let is = insertion_instrs pool temps spec.rank set in
        Cfg.set_instrs g l (Cfg.instrs g l @ is);
        acc + List.length is)
      0 spec.exit_inserts
  in
  let split_blocks = ref [] in
  let num_edge_insertions =
    List.fold_left
      (fun acc ((src, dst), set) ->
        let is = insertion_instrs pool temps spec.rank set in
        if is = [] then acc
        else begin
          let fresh = Cfg.split_edge ~instrs:is g src dst in
          split_blocks := ((src, dst), fresh) :: !split_blocks;
          acc + List.length is
        end)
      0 spec.edge_inserts
  in
  Cfg.prune_memos input ~rewritten:(List.rev rewritten)
    ~split:(List.sort_uniq compare (List.map (fun ((src, _), _) -> src) !split_blocks));
  if simplify then begin
    Cfg.merge_straight_pairs g;
    Cfg.remove_unreachable g
  end;
  Validate.check_exn g;
  ( g,
    {
      spec;
      num_edge_insertions;
      num_entry_insertions;
      num_exit_insertions;
      num_deletions;
      num_copies;
      split_blocks = List.rev !split_blocks;
    } )

let pp_report ppf r =
  Format.fprintf ppf "%s: %d edge insertions, %d entry insertions, %d exit insertions, %d deletions, %d copies"
    r.spec.algorithm r.num_edge_insertions r.num_entry_insertions r.num_exit_insertions
    r.num_deletions r.num_copies
