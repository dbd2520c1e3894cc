(* The change-driven incremental analysis against from-scratch solves:
   chains of deltas that each restart from the previous delta's capture,
   over every kind of edit a delta can make.  The analysis runs on an
   arena that is reset after every delta, so a capture row shared with the
   arena would be overwritten by the next delta and show up as a
   mismatch. *)

module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Prng = Lcm_support.Prng
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Patch = Lcm_cfg.Patch
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Gencfg = Lcm_eval.Gencfg
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform
module Avail = Lcm_dataflow.Avail
module Antic = Lcm_dataflow.Antic
module Local = Lcm_dataflow.Local
module Expr_pool = Lcm_ir.Expr_pool

let instr s = Lcm_cfg.Cfg_text.parse_instr_line s

let program g a = Cfg.digest (fst (Transform.apply g (Lcm_edge.spec g a)))

let same_sets a b =
  List.length a = List.length b && List.for_all2 (fun (k, v) (k', v') -> k = k' && Bitvec.equal v v') a b

(* [None] when [a] (incremental, on the patched graph [g]) and [b] (from
   scratch) agree on every row, set and the transformed program; else what
   differs. *)
let difference g (a : Lcm_edge.analysis) (b : Lcm_edge.analysis) =
  let row what f f' =
    List.find_map
      (fun l -> if Bitvec.equal (f l) (f' l) then None else Some (Printf.sprintf "%s at B%d" what l))
      (Cfg.labels g)
  in
  let ( >>? ) x k = match x with Some _ -> x | None -> k () in
  let local f (x : Lcm_edge.analysis) = f x.Lcm_edge.local in
  row "ANTLOC" (local Local.antloc a) (local Local.antloc b) >>? fun () ->
  row "COMP" (local Local.comp a) (local Local.comp b) >>? fun () ->
  row "TRANSP" (local Local.transp a) (local Local.transp b) >>? fun () ->
  row "AVIN" a.Lcm_edge.avail.Avail.avin b.Lcm_edge.avail.Avail.avin >>? fun () ->
  row "AVOUT" a.Lcm_edge.avail.Avail.avout b.Lcm_edge.avail.Avail.avout >>? fun () ->
  row "ANTIN" a.Lcm_edge.antic.Antic.antin b.Lcm_edge.antic.Antic.antin >>? fun () ->
  row "ANTOUT" a.Lcm_edge.antic.Antic.antout b.Lcm_edge.antic.Antic.antout >>? fun () ->
  (if same_sets a.Lcm_edge.insert b.Lcm_edge.insert then None else Some "INSERT") >>? fun () ->
  (if same_sets a.Lcm_edge.delete b.Lcm_edge.delete then None else Some "DELETE") >>? fun () ->
  (if same_sets a.Lcm_edge.copy b.Lcm_edge.copy then None else Some "COPY") >>? fun () ->
  if String.equal (program g a) (program (Cfg.copy g) b) then None else Some "program digest"

(* ---- random deltas ---- *)

type kind =
  | Add_computation  (** recompute an existing candidate somewhere: GEN gained *)
  | Remove_computation  (** drop a computation that also occurs elsewhere *)
  | Kill_only  (** overwrite an operand: KEEP lost, nothing computed *)
  | Retarget  (** [Set_term] to another block *)
  | Strand_exit  (** every edge into the exit becomes a self-loop: the exit is unreachable *)
  | Restore  (** put back a terminator replaced earlier: reachable again *)
  | New_block  (** [Add_block] wired in by a [Set_term] of the same delta *)

let kinds = [| Add_computation; Remove_computation; Kill_only; Retarget; Strand_exit; Restore; New_block |]

let kind_name = function
  | Add_computation -> "add computation"
  | Remove_computation -> "remove computation"
  | Kill_only -> "kill only"
  | Retarget -> "retarget"
  | Strand_exit -> "strand exit"
  | Restore -> "restore"
  | New_block -> "new block"

let candidates g =
  List.concat_map (fun l -> List.filter_map Instr.candidate (Cfg.instrs g l)) (Cfg.labels g)

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Prng.int rng (List.length xs)))

let interior g = List.filter (fun l -> l <> Cfg.entry g && l <> Cfg.exit_label g) (Cfg.labels g)
let gotos g = List.filter (fun l -> match Cfg.term g l with Cfg.Goto _ -> true | _ -> false) (Cfg.labels g)

(* One delta of the given kind on [g], or [None] when [g] offers nothing
   to edit that way.  [replaced] holds terminators earlier deltas
   replaced.  Patch validation keeps every block but the exit reachable,
   so the exit is the block whose reachability flips. *)
let random_delta rng g replaced kind =
  let targets = List.filter (fun l -> l <> Cfg.entry g) (Cfg.labels g) in
  match kind with
  | Add_computation ->
    Option.bind (pick rng (candidates g)) (fun e ->
        Option.map
          (fun l -> [ Patch.Set_instrs (l, Cfg.instrs g l @ [ instr ("zfresh := " ^ Expr.to_string e) ]) ])
          (pick rng (Cfg.labels g)))
  | Remove_computation ->
    let all = candidates g in
    let twice e = List.length (List.filter (Expr.equal e) all) >= 2 in
    let removable l = List.exists (fun i -> match Instr.candidate i with Some e -> twice e | None -> false) (Cfg.instrs g l) in
    Option.map
      (fun l ->
        let rec drop = function
          | [] -> []
          | i :: rest -> (match Instr.candidate i with Some e when twice e -> rest | _ -> i :: drop rest)
        in
        [ Patch.Set_instrs (l, drop (Cfg.instrs g l)) ])
      (pick rng (List.filter removable (Cfg.labels g)))
  | Kill_only ->
    let operands = List.concat_map (fun e -> Instr.uses (Instr.Assign ("_", e))) (candidates g) in
    Option.bind (pick rng operands) (fun v ->
        Option.map
          (fun l ->
            let body = Cfg.instrs g l in
            let k = Prng.int rng (List.length body + 1) in
            [ Patch.Set_instrs (l, List.filteri (fun i _ -> i < k) body @ (instr (v ^ " := 7") :: List.filteri (fun i _ -> i >= k) body)) ])
          (pick rng (Cfg.labels g)))
  | Retarget ->
    Option.bind (pick rng (gotos g)) (fun l ->
        Option.map (fun t -> [ Patch.Set_term (l, Cfg.Goto t) ]) (pick rng (Cfg.exit_label g :: targets)))
  | Strand_exit ->
    let exit = Cfg.exit_label g in
    let away p l = if Label.equal l exit then p else l in
    (match Cfg.predecessors g exit with
    | [] -> None
    | preds ->
      Some
        (List.map
           (fun p ->
             Patch.Set_term
               ( p,
                 match Cfg.term g p with
                 | Cfg.Goto l -> Cfg.Goto (away p l)
                 | Cfg.Branch (c, a, b) -> Cfg.Branch (c, away p a, away p b)
                 | Cfg.Halt -> Cfg.Halt ))
           preds))
  | Restore ->
    (match !replaced with
    | terms :: rest ->
      replaced := rest;
      Some (List.map (fun (l, term) -> Patch.Set_term (l, term)) terms)
    | [] -> None)
  | New_block ->
    Option.bind (pick rng (interior g)) (fun body_of ->
        Option.bind (pick rng (gotos g)) (fun from ->
            Option.map
              (fun t ->
                [
                  Patch.Add_block (Cfg.instrs g body_of, Cfg.Goto t);
                  Patch.Set_term (from, Cfg.Goto (Cfg.label_bound g));
                ])
              (pick rng targets)))

(* ---- the chain ---- *)

let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt

(* Runs [rounds] deltas from one capture to the next.  Round 3 is a patch
   that fails ([Patch.Error]) and round 5 a delta whose solve is thrown
   away, as when a request fails after its solve: either way the handle
   keeps its capture, which must still restart exactly — checked with an
   empty delta on the unchanged graph. *)
let chain ~seed ~rounds g0 =
  let rng = Prng.of_int seed in
  let arena = Arena.create () in
  let replaced = ref [] in
  let check_capture g saved what =
    let a =
      match Lcm_edge.analyze_incr ~scratch:arena g ~prev:saved ~dirty:[] with
      | Some (a, _, region) -> if region <> 0 then fail "%s: empty delta changed %d rows" what region else a
      | None -> fail "%s: capture refused on its own graph" what
    in
    let full, _ = Lcm_edge.analyze_keep (Cfg.copy g) in
    let d = difference g a full in
    Arena.reset arena;
    match d with Some d -> fail "%s: capture differs from scratch (%s)" what d | None -> ()
  in
  let rec go round g saved =
    if round >= rounds then (check_capture g saved "end of chain"; true)
    else if round = 3 then begin
      (* A patch that fails validation: a non-exit block halting. *)
      let target = match interior g with l :: _ -> l | [] -> Cfg.entry g in
      (match Patch.apply (Cfg.copy g) [ Patch.Set_term (target, Cfg.Halt) ] with
      | exception Patch.Error _ -> ()
      | _ -> ignore (fail "halting interior block accepted"));
      check_capture g saved "after a failed patch";
      go (round + 1) g saved
    end
    else begin
      let kind = kinds.(Prng.int rng (Array.length kinds)) in
      (* A few tries: a random retarget often strands a block, which
         patch validation refuses. *)
      let rec attempt tries =
        if tries = 0 then None
        else
          match random_delta rng g replaced kind with
          | None -> None
          | Some edits ->
            let g' = Cfg.copy g in
            (match Patch.apply g' edits with
            | exception Patch.Error _ -> attempt (tries - 1)
            | dirty ->
              let old_terms =
                List.filter_map
                  (function Patch.Set_term (l, _) when Cfg.mem g l -> Some (l, Cfg.term g l) | _ -> None)
                  edits
              in
              if kind <> Restore && old_terms <> [] then replaced := old_terms :: !replaced;
              Some (g', dirty))
      in
      match attempt 4 with
      | None -> go (round + 1) g saved
      | Some (g', dirty) ->
        (* The pool check must take the full path exactly when the pool
           changed. *)
        let same_pool =
          List.equal
            (fun (i, e) (j, f) -> i = j && Expr.equal e f)
            (Expr_pool.to_list (Cfg.candidate_pool (Cfg.copy g')))
            (Expr_pool.to_list (Lcm_edge.saved_pool saved))
        in
        let a, saved' =
          match Lcm_edge.analyze_incr ~scratch:arena g' ~prev:saved ~dirty with
          | Some (a, saved', region) ->
            if not same_pool then fail "%s: incremental path on a changed pool" (kind_name kind);
            if region > Cfg.label_bound g' then fail "%s: %d changed rows" (kind_name kind) region;
            (a, saved')
          | None ->
            if same_pool then fail "%s: full path on an unchanged pool" (kind_name kind);
            Lcm_edge.analyze_keep ~scratch:arena g'
        in
        let full, _ = Lcm_edge.analyze_keep (Cfg.copy g') in
        (match difference g' a full with
        | Some d -> ignore (fail "round %d (%s): %s differs from scratch" round (kind_name kind) d)
        | None -> ());
        Arena.reset arena;
        if round = 5 then begin
          check_capture g saved "after a discarded solve";
          go (round + 1) g saved
        end
        else go (round + 1) g' saved'
    end
  in
  let _, saved = Lcm_edge.analyze_keep g0 in
  go 0 g0 saved

let prop_chain =
  QCheck2.Test.make ~name:"analyze_incr chains ≡ analyze_keep (random CFGs, every edit kind)" ~count:60
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 4242) in
      let num_blocks = Prng.int_in rng 4 30 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      chain ~seed ~rounds:12 g)

(* Every Bril corpus function, one chain each: real programs, with more
   candidates than the random graphs. *)
let test_chain_bril () =
  List.iteri
    (fun i (name, g) -> Alcotest.(check bool) name true (chain ~seed:(97 * i) ~rounds:10 g))
    (Test_solver.bril_corpus ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_chain;
    Alcotest.test_case "analyze_incr chains ≡ analyze_keep (Bril corpus)" `Quick test_chain_bril;
  ]
