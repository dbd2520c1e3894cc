(* The generic solver: all four problem shapes against hand-computed
   fixpoints on a small graph, plus convergence behaviour. *)

module Bitvec = Lcm_support.Bitvec
module Cfg = Lcm_cfg.Cfg
module Label = Lcm_cfg.Label
module Solver = Lcm_dataflow.Solver
module Rowtab = Lcm_support.Rowtab
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr

(* entry → a → (b | c) → d → exit with a back edge d → a. *)
let graph () =
  let g = Cfg.create () in
  let a = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  let b = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  let c = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  let d = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g (Cfg.entry g) (Cfg.Goto a);
  Cfg.set_term g a (Cfg.Branch (Expr.Var "p", b, c));
  Cfg.set_term g b (Cfg.Goto d);
  Cfg.set_term g c (Cfg.Goto d);
  Cfg.set_term g d (Cfg.Branch (Expr.Var "q", a, Cfg.exit_label g));
  (g, a, b, c, d)

(* One bit; block b "generates" it, block c "kills" it: GEN/KEEP rows. *)
let rows ~gen_at ~kill_at g =
  let bound = Cfg.label_bound g in
  let gen = Array.init bound (fun _ -> Bitvec.create 1) in
  let keep = Array.init bound (fun _ -> Bitvec.create_full 1) in
  List.iter (fun l -> Bitvec.set keep.(l) 0 false) kill_at;
  List.iter (fun l -> Bitvec.set gen.(l) 0 true) gen_at;
  (gen, keep)

let one_bit_spec g direction confluence ~gen_at ~kill_at =
  let gen, keep = rows ~gen_at ~kill_at g in
  { Solver.nbits = 1; direction; confluence; boundary = Bitvec.create 1; gen = Rowtab.of_rows 1 gen; keep = Rowtab.of_rows 1 keep }

let run g direction confluence ~gen_at ~kill_at =
  Solver.run g (one_bit_spec g direction confluence ~gen_at ~kill_at)

let bit v = Bitvec.get v 0

let test_forward_inter () =
  (* Gen in b only: at the join d, must-availability fails (c path). *)
  let g, a, b, c, d = graph () in
  let r = run g Solver.Forward Solver.Inter ~gen_at:[ b ] ~kill_at:[] in
  Alcotest.(check bool) "out b" true (bit (r.Solver.block_out b));
  Alcotest.(check bool) "out c" false (bit (r.Solver.block_out c));
  Alcotest.(check bool) "in d (must)" false (bit (r.Solver.block_in d));
  Alcotest.(check bool) "in a (backedge meet)" false (bit (r.Solver.block_in a));
  ignore c

let test_forward_union () =
  (* Same gen, may-analysis: d sees it, and around the back edge so does
     a. *)
  let g, a, b, _c, d = graph () in
  let r = run g Solver.Forward Solver.Union ~gen_at:[ b ] ~kill_at:[] in
  Alcotest.(check bool) "in d (may)" true (bit (r.Solver.block_in d));
  Alcotest.(check bool) "in a via back edge" true (bit (r.Solver.block_in a))

let test_backward_inter () =
  (* Gen at d: everything above d must reach it... except paths that exit
     — but the only exit is below d, so a/b/c all anticipate. *)
  let g, a, b, c, d = graph () in
  let r = run g Solver.Backward Solver.Inter ~gen_at:[ d ] ~kill_at:[] in
  Alcotest.(check bool) "out a" true (bit (r.Solver.block_out a));
  Alcotest.(check bool) "out b" true (bit (r.Solver.block_out b));
  Alcotest.(check bool) "out c" true (bit (r.Solver.block_out c));
  (* At d's exit: the q-branch goes to a (leading back to d: gen) or to
     the exit (no gen): must fails. *)
  Alcotest.(check bool) "out d" false (bit (r.Solver.block_out d))

let test_backward_union () =
  let g, _a, b, _c, d = graph () in
  let r = run g Solver.Backward Solver.Union ~gen_at:[ b ] ~kill_at:[] in
  (* b is reachable (backwards) from d's exit via the back edge. *)
  Alcotest.(check bool) "out d (may, around the loop)" true (bit (r.Solver.block_out d))

let test_kill () =
  let g, a, b, _c, d = graph () in
  let r = run g Solver.Forward Solver.Union ~gen_at:[ a ] ~kill_at:[ b ] in
  Alcotest.(check bool) "killed on b path" true (bit (r.Solver.block_in d));
  Alcotest.(check bool) "out b killed" false (bit (r.Solver.block_out b));
  ignore d

(* ------------------------------------------------------------------ *)
(* Random problems: monotone GEN/KEEP transfers on random CFGs. *)

module Prng = Lcm_support.Prng
module Gencfg = Lcm_eval.Gencfg
module Order = Lcm_cfg.Order

let random_vec rng nbits ~den =
  let v = Bitvec.create nbits in
  for i = 0 to nbits - 1 do
    if Prng.chance rng ~num:1 ~den then Bitvec.set v i true
  done;
  v

(* Random GEN/KEEP rows: a quarter of the bits generated, a quarter killed. *)
let random_rows rng bound nbits =
  let gen = Array.init bound (fun _ -> random_vec rng nbits ~den:4) in
  let keep = Array.init bound (fun _ -> Bitvec.complement (random_vec rng nbits ~den:4)) in
  (gen, keep)

(* ------------------------------------------------------------------ *)
(* The former closure-based engine, kept as the oracle for the fused
   GEN/KEEP visit kernel: a [transfer] closure per spec, built here from
   the rows with one [Bitvec] call per set operation, and a visit that
   meets into a scratch vector and blits it into place.  Its worklist
   and restart schedules are the production solver's (a worklist popping
   the pending block of least priority; restart from a saved fixpoint over
   the dirty closure), so the counters must agree too, not just the
   fixpoint.  It also iterates by round-robin sweeps, the paper's cost
   model, which must reach the same fixpoint. *)

module Reference = struct
  type engine =
    | Worklist  (** the production solver's schedule *)
    | Sweep  (** round-robin sweeps to a fixed point *)

  type spec = {
    nbits : int;
    direction : Solver.direction;
    confluence : Solver.confluence;
    boundary : Bitvec.t;
    transfer : Label.t -> src:Bitvec.t -> dst:Bitvec.t -> unit;
  }

  (* out = GEN ∪ (in ∩ KEEP), one vector operation at a time. *)
  let of_rows ~nbits ~direction ~confluence ~boundary ~gen ~keep =
    let transfer l ~src ~dst =
      ignore (Bitvec.blit ~src ~dst);
      ignore (Bitvec.inter_into ~into:dst keep.(l));
      ignore (Bitvec.union_into ~into:dst gen.(l))
    in
    { nbits; direction; confluence; boundary; transfer }

  let bitvecs n t = Array.init t.Rowtab.count (fun l -> Rowtab.to_bitvec t l n)

  let of_spec (s : Solver.spec) =
    of_rows ~nbits:s.Solver.nbits ~direction:s.Solver.direction ~confluence:s.Solver.confluence
      ~boundary:s.Solver.boundary ~gen:(bitvecs s.Solver.nbits s.Solver.gen)
      ~keep:(bitvecs s.Solver.nbits s.Solver.keep)

  (* The solver's result without its tables, which the reference has
     none of. *)
  type result = {
    block_in : Label.t -> Bitvec.t;
    block_out : Label.t -> Bitvec.t;
    sweeps : int;
    visits : int;
  }

  let of_solver (r : Solver.result) =
    { block_in = r.Solver.block_in; block_out = r.Solver.block_out; sweeps = r.Solver.sweeps; visits = r.Solver.visits }

  type state = {
    g : Cfg.t;
    boundary_label : Label.t;
    meet : Bitvec.t array;
    flow : Bitvec.t array;
    meet_neighbors : Label.t -> Label.t list;
    dependents : Label.t -> Label.t list;
    order : Label.t list;
    prio : int array;
    scratch : Bitvec.t;
  }

  let make_state g spec =
    let bound = Cfg.label_bound g in
    let init () =
      match spec.confluence with
      | Solver.Union -> Bitvec.create spec.nbits
      | Solver.Inter -> Bitvec.create_full spec.nbits
    in
    let meet = Array.init bound (fun _ -> init ()) and flow = Array.init bound (fun _ -> init ()) in
    let o = Order.compute g in
    let boundary_label, meet_neighbors, dependents, order =
      match spec.direction with
      | Solver.Forward ->
        (Cfg.entry g, Cfg.predecessors g, Cfg.successors g, Order.reverse_postorder o)
      | Solver.Backward ->
        (Cfg.exit_label g, Cfg.successors g, Cfg.predecessors g, List.rev (Order.reverse_postorder o))
    in
    meet.(boundary_label) <- Bitvec.copy spec.boundary;
    let prio = Array.make bound max_int in
    List.iteri (fun i l -> prio.(l) <- i) order;
    {
      g;
      boundary_label;
      meet;
      flow;
      meet_neighbors;
      dependents;
      order;
      prio;
      scratch = Bitvec.create spec.nbits;
    }

  let visit st spec l =
    if not (Label.equal l st.boundary_label) then begin
      match st.meet_neighbors l with
      | [] -> ()
      | n0 :: rest ->
        ignore (Bitvec.blit ~src:st.flow.(n0) ~dst:st.scratch);
        List.iter
          (fun nb ->
            ignore
              (match spec.confluence with
              | Solver.Union -> Bitvec.union_into ~into:st.scratch st.flow.(nb)
              | Solver.Inter -> Bitvec.inter_into ~into:st.scratch st.flow.(nb)))
          rest;
        ignore (Bitvec.blit ~src:st.scratch ~dst:st.meet.(l))
    end;
    spec.transfer l ~src:st.meet.(l) ~dst:st.scratch;
    Bitvec.blit ~src:st.scratch ~dst:st.flow.(l)

  let run_sweep st spec =
    let sweeps = ref 0 and visits = ref 0 and changed = ref true in
    while !changed do
      changed := false;
      incr sweeps;
      List.iter
        (fun l ->
          incr visits;
          if visit st spec l then changed := true)
        st.order
    done;
    (!sweeps, !visits)

  (* The pending set is a boolean per label; a pop scans for the least
     priority.  Priorities are distinct positions in [order], so the pop
     sequence is the production heap's. *)
  let run_worklist ?seeds st spec =
    let bound = Array.length st.prio in
    let pending = Array.make bound false in
    let count = Array.make bound 0 in
    List.iter (fun l -> pending.(l) <- true) (Option.value seeds ~default:st.order);
    let visits = ref 0 in
    let rec pop best l =
      if l >= bound then best
      else pop (if pending.(l) && (best < 0 || st.prio.(l) < st.prio.(best)) then l else best) (l + 1)
    in
    let rec loop () =
      let l = pop (-1) 0 in
      if l >= 0 then begin
        pending.(l) <- false;
        incr visits;
        count.(l) <- count.(l) + 1;
        if visit st spec l then
          List.iter (fun d -> if st.prio.(d) < max_int then pending.(d) <- true) (st.dependents l);
        loop ()
      end
    in
    loop ();
    (Array.fold_left max 0 count, !visits)

  let result st spec (sweeps, visits) =
    let block_in, block_out =
      match spec.direction with
      | Solver.Forward -> ((fun l -> st.meet.(l)), fun l -> st.flow.(l))
      | Solver.Backward -> ((fun l -> st.flow.(l)), fun l -> st.meet.(l))
    in
    { block_in; block_out; sweeps; visits }

  let run ?(engine = Worklist) g spec =
    let st = make_state g spec in
    result st spec
      (match engine with
      | Worklist -> run_worklist st spec
      | Sweep -> run_sweep st spec)

  type saved = {
    s_meet : Bitvec.t array;
    s_flow : Bitvec.t array;
    s_reach : bool array;
  }

  let save st =
    {
      s_meet = Array.map Bitvec.copy st.meet;
      s_flow = Array.map Bitvec.copy st.flow;
      s_reach = Array.map (fun p -> p < max_int) st.prio;
    }

  let run_saved g spec =
    let st = make_state g spec in
    let r = result st spec (run_worklist st spec) in
    (r, save st)

  (* Re-seed the closure of [dirty] (plus new blocks and blocks whose
     reachability flipped) under [dependents]; restore the saved fixpoint
     everywhere else. *)
  let resolve g spec ~prev ~dirty =
    let st = make_state g spec in
    let bound = Array.length st.prio and old_bound = Array.length prev.s_reach in
    let affected = Array.make bound false in
    let rec mark l =
      if l >= 0 && l < bound && not affected.(l) then begin
        affected.(l) <- true;
        List.iter mark (st.dependents l)
      end
    in
    List.iter mark dirty;
    for l = 0 to bound - 1 do
      if l >= old_bound || st.prio.(l) < max_int <> prev.s_reach.(l) then mark l
    done;
    List.iter
      (fun l ->
        if l < old_bound && not affected.(l) then begin
          ignore (Bitvec.blit ~src:prev.s_meet.(l) ~dst:st.meet.(l));
          ignore (Bitvec.blit ~src:prev.s_flow.(l) ~dst:st.flow.(l))
        end)
      (Cfg.labels g);
    let seeds = List.filter (fun l -> affected.(l)) st.order in
    let r = result st spec (run_worklist ~seeds st spec) in
    (r, save st, List.length seeds)
end

(* [same_rows g a b] holds when two results agree on every block's in and
   out rows; [same_result] also on both counters. *)
let same_rows g (a : Reference.result) (b : Reference.result) =
  List.for_all
    (fun l ->
      Bitvec.equal (a.Reference.block_in l) (b.Reference.block_in l)
      && Bitvec.equal (a.Reference.block_out l) (b.Reference.block_out l))
    (Cfg.labels g)

let same_result g (a : Reference.result) (b : Reference.result) =
  a.Reference.visits = b.Reference.visits && a.Reference.sweeps = b.Reference.sweeps && same_rows g a b

(* The solver against the oracle: rows and counters equal to the
   reference worklist's, rows equal to the reference sweep's. *)
let matches_reference g spec =
  let r = Reference.of_solver (Solver.run g spec) and reference = Reference.of_spec spec in
  same_result g r (Reference.run g reference)
  && same_rows g r (Reference.run ~engine:Reference.Sweep g reference)

let test_counts_monotone () =
  let g, a, _b, _c, _d = graph () in
  (* Worklist engine: every reachable block is visited at least once, the
     back edge forces at least one re-visit, and visits are bounded by what
     a round-robin sweep would have paid. *)
  let r = run g Solver.Forward Solver.Inter ~gen_at:[ a ] ~kill_at:[] in
  Alcotest.(check bool) "visits cover blocks" true (r.Solver.visits >= 6);
  Alcotest.(check bool) "at least depth 1" true (r.Solver.sweeps >= 1);
  Alcotest.(check bool) "depth bounds visits" true (r.Solver.visits <= r.Solver.sweeps * 6);
  (* The reference sweep keeps the historical meaning: every sweep
     transfers every reachable block. *)
  let s =
    Reference.run ~engine:Reference.Sweep g
      (Reference.of_spec (one_bit_spec g Solver.Forward Solver.Inter ~gen_at:[ a ] ~kill_at:[]))
  in
  Alcotest.(check bool) "sweep engine: at least two sweeps" true (s.Reference.sweeps >= 2);
  Alcotest.(check bool) "sweep engine: visits = sweeps * blocks" true
    (s.Reference.visits = s.Reference.sweeps * 6)

(* The solver computes bit-identical block_in/block_out to the reference
   round-robin sweep, on random CFGs, for all four problem shapes, at a
   width that straddles a word boundary. *)
let test_worklist_equals_sweep () =
  let rng = Prng.of_int 9001 in
  for _case = 1 to 100 do
    let num_blocks = Prng.int_in rng 3 40 in
    let g =
      Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng
    in
    let nbits = 65 in
    let gen, keep = random_rows rng (Cfg.label_bound g) nbits in
    List.iter
      (fun direction ->
        List.iter
          (fun confluence ->
            let spec =
              {
                Solver.nbits;
                direction;
                confluence;
                boundary = Bitvec.create nbits;
                gen = Rowtab.of_rows nbits gen;
                keep = Rowtab.of_rows nbits keep;
              }
            in
            let s = Reference.run ~engine:Reference.Sweep g (Reference.of_spec spec) in
            Alcotest.(check bool) "rows identical" true (same_rows g (Reference.of_solver (Solver.run g spec)) s))
          [ Solver.Union; Solver.Inter ])
      [ Solver.Forward; Solver.Backward ]
  done

let kernel_widths = [ 1; 62; 63; 64; 65; 127; 512 ]
let shapes =
  List.concat_map
    (fun d -> List.map (fun c -> (d, c)) [ Solver.Union; Solver.Inter ])
    [ Solver.Forward; Solver.Backward ]

(* A random graph with the boundary cases planted: an unreachable block
   that feeds a reachable one (its flow row is the confluence's neutral
   value and still enters that block's meet), and a reachable block that
   loops on itself without reaching the exit (no path to the backward
   boundary). *)
let kernel_graph rng =
  let num_blocks = Prng.int_in rng 3 40 in
  let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
  let labels = Array.of_list (Cfg.labels g) in
  let pick () = labels.(Prng.int rng (Array.length labels)) in
  ignore (Cfg.add_block g ~instrs:[] ~term:(Cfg.Goto (pick ())));
  let trap = Cfg.add_block g ~instrs:[] ~term:Cfg.Halt in
  Cfg.set_term g trap (Cfg.Goto trap);
  let from = pick () in
  if not (Label.equal from (Cfg.exit_label g)) then
    Cfg.set_term g from (Cfg.Branch (Expr.Var "k", trap, Cfg.exit_label g));
  g

let random_spec rng g (direction, confluence) nbits =
  let gen, keep = random_rows rng (Cfg.label_bound g) nbits in
  {
    Solver.nbits;
    direction;
    confluence;
    boundary = random_vec rng nbits ~den:3;
    gen = Rowtab.of_rows nbits gen;
    keep = Rowtab.of_rows nbits keep;
  }

let seed_gen = QCheck2.Gen.int_bound 1_000_000

let prop_kernel_equals_reference =
  QCheck2.Test.make ~name:"GEN/KEEP kernel ≡ closure reference (worklist, sweep; 4 shapes × 7 widths)"
    ~count:60 seed_gen (fun seed ->
      let rng = Prng.of_int (seed + 7001) in
      let g = kernel_graph rng in
      List.for_all
        (fun nbits ->
          List.for_all
            (fun shape ->
              matches_reference g (random_spec rng g shape nbits)
              || QCheck2.Test.fail_reportf "mismatch at %d bits" nbits)
            shapes)
        kernel_widths)

(* Restart after a chain of patches: each round edits the rows of one
   block (a body edit, in new row tables as the serving path builds them),
   redirects a block's terminator (which can make blocks unreachable or
   reachable again) or appends a block.  The change-driven restart must
   land on the rows of a from-scratch solve and of the former
   reset-the-closure restart ([Reference.resolve]), report exactly the
   blocks whose rows changed, and never write the capture it restarted
   from: every row of its tables (flow, GEN and KEEP) is compared
   against a deep copy taken before, after a restart whose result is
   dropped and after the one whose result is kept. *)
let rows_of g (r : Solver.result) =
  List.map (fun l -> (l, Bitvec.copy (r.Solver.block_in l), Bitvec.copy (r.Solver.block_out l))) (Cfg.labels g)

(* Every row of every table, copied out word by word. *)
let deep_copy tables =
  List.map
    (fun t ->
      let nw = t.Rowtab.nw in
      Array.init t.Rowtab.count (fun i -> Array.sub (Rowtab.page t i) (Rowtab.off t i) nw))
    tables

let capture_tables (r : Solver.result) (spec : Solver.spec) = [ r.Solver.flow; spec.Solver.gen; spec.Solver.keep ]

let random_round rng g (spec : Solver.spec) nbits =
  let labels = Array.of_list (Cfg.labels g) in
  let pick () = labels.(Prng.int rng (Array.length labels)) in
  let l = pick () in
  let gen = Reference.bitvecs nbits spec.Solver.gen and keep = Reference.bitvecs nbits spec.Solver.keep in
  let tables gen keep = { spec with Solver.gen = Rowtab.of_rows nbits gen; keep = Rowtab.of_rows nbits keep } in
  match Prng.int rng 3 with
  | 0 when not (Label.equal l (Cfg.exit_label g)) ->
    let target = pick () in
    let old = Cfg.successors g l in
    Cfg.set_term g l (Cfg.Goto target);
    (tables gen keep, (l :: old) @ Cfg.successors g l)
  | 1 ->
    let target = pick () in
    let n = Cfg.add_block g ~instrs:[] ~term:(Cfg.Goto target) in
    let gen = Array.append gen [| random_vec rng nbits ~den:4 |] in
    let keep = Array.append keep [| Bitvec.complement (random_vec rng nbits ~den:4) |] in
    assert (Array.length gen = n + 1);
    (tables gen keep, [ n; target ])
  | _ ->
    (* Flip a few bits of GEN and KEEP: some gained, some lost. *)
    for _ = 1 to 1 + Prng.int rng 3 do
      let i = Prng.int rng nbits in
      if Prng.bool rng then Bitvec.set gen.(l) i (not (Bitvec.get gen.(l) i))
      else Bitvec.set keep.(l) i (not (Bitvec.get keep.(l) i))
    done;
    (tables gen keep, [ l ])

let prop_restart_equals_reference =
  QCheck2.Test.make ~name:"GEN/KEEP kernel ≡ closure reference (restart after body/shape edits)"
    ~count:60 seed_gen (fun seed ->
      let rng = Prng.of_int (seed + 8111) in
      let g = kernel_graph rng in
      let nbits = Prng.choose_list rng kernel_widths in
      List.for_all
        (fun shape ->
          let g = Cfg.copy g in
          let spec = ref (random_spec rng g shape nbits) in
          let r0, saved0 = Solver.run_saved g !spec in
          let _, rsaved0 = Reference.run_saved g (Reference.of_spec !spec) in
          let state = ref (r0, saved0, rsaved0) in
          List.for_all
            (fun round ->
              let prev_r, saved, rsaved = !state in
              let before = rows_of g prev_r in
              let prev_tables = capture_tables prev_r !spec in
              let snapshot = deep_copy prev_tables in
              let intact what =
                deep_copy prev_tables = snapshot
                || QCheck2.Test.fail_reportf "a %s restart wrote into the capture it restarted from (round %d)" what
                     round
              in
              let old_bound = Cfg.label_bound g in
              let spec', dirty = random_round rng g !spec nbits in
              spec := spec';
              (* A restart whose result is dropped, as when the request
                 fails after its solve. *)
              ignore (Solver.restart g spec' ~prev:saved ~dirty);
              intact "discarded"
              &&
              match Solver.restart g spec' ~prev:saved ~dirty with
              | None -> QCheck2.Test.fail_report "restart refused an admissible capture"
              | Some (r, saved') ->
                let r', rsaved', _ = Reference.resolve g (Reference.of_spec spec') ~prev:rsaved ~dirty in
                let expected_changed =
                  List.filter
                    (fun l ->
                      l >= old_bound
                      || not
                           (List.exists
                              (fun (l', i, o) ->
                                Label.equal l l'
                                && Bitvec.equal i (r.Solver.block_in l)
                                && Bitvec.equal o (r.Solver.block_out l))
                              before))
                    (Cfg.labels g)
                in
                let changed = Array.to_list r.Solver.changed in
                state := (r, saved', rsaved');
                let ro = Reference.of_solver r in
                (same_rows g ro (Reference.of_solver (Solver.run g spec')) && same_rows g ro r'
                || QCheck2.Test.fail_reportf "restart mismatch at %d bits, round %d" nbits round)
                && (changed = expected_changed
                   || QCheck2.Test.fail_reportf "restart reported %d changed rows, expected %d"
                        (List.length changed) (List.length expected_changed))
                && (List.for_all
                      (fun (l, i, o) ->
                        Bitvec.equal i (prev_r.Solver.block_in l) && Bitvec.equal o (prev_r.Solver.block_out l))
                      before
                   || QCheck2.Test.fail_reportf "restart wrote into the capture it restarted from")
                && intact "kept")
            (List.init 8 Fun.id))
        shapes)

(* The Bril corpus: every function's real AVAIL/ANTIC rows (and the
   partial, union variants), against both reference schedules. *)
let bril_corpus () =
  Sys.readdir "bril" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         let text = In_channel.with_open_bin (Filename.concat "bril" f) In_channel.input_all in
         List.map (fun (name, g) -> (f ^ ":" ^ name, g)) (Lcm_frontend.Bril.parse_program text))

let test_kernel_bril_corpus () =
  List.iter
    (fun (name, g) ->
      let local = Lcm_dataflow.Local.compute g (Cfg.candidate_pool g) in
      let nbits = Lcm_dataflow.Local.nbits local in
      List.iter
        (fun (direction, confluence) ->
          let gen =
            match direction with
            | Solver.Forward -> Lcm_dataflow.Local.comp_rows local
            | Solver.Backward -> Lcm_dataflow.Local.antloc_rows local
          in
          let spec =
            {
              Solver.nbits;
              direction;
              confluence;
              boundary = Bitvec.create nbits;
              gen;
              keep = Lcm_dataflow.Local.transp_rows local;
            }
          in
          Alcotest.(check bool) name true (matches_reference g spec))
        shapes)
    (bril_corpus ())

(* ------------------------------------------------------------------ *)
(* The full LCM cascade against a naive reference: reference avail/antic
   via the sweep engine, EARLIEST from the paper's formula, LATERIN by
   round-robin sweeps over predecessor lists (the seed implementation), and
   the INSERT/DELETE formulas on top.  The production [Lcm_edge.analyze]
   (worklist throughout) must produce identical insert/delete sets. *)

module Local = Lcm_dataflow.Local
module Lcm_edge = Lcm_core.Lcm_edge
module Suites = Lcm_eval.Suites

let reference_lcm g =
  let pool = Cfg.candidate_pool g in
  let local = Local.compute g pool in
  let n = Local.nbits local in
  let rows f = Array.init (Cfg.label_bound g) (fun l -> if Cfg.mem g l then f local l else Bitvec.create n) in
  let solve direction gen keep =
    Reference.run ~engine:Reference.Sweep g
      (Reference.of_rows ~nbits:n ~direction ~confluence:Solver.Inter ~boundary:(Bitvec.create n)
         ~gen:(rows gen) ~keep:(rows keep))
  in
  let avail = solve Solver.Forward Local.comp Local.transp in
  let antic = solve Solver.Backward Local.antloc Local.transp in
  let entry = Cfg.entry g in
  let earliest (p, b) =
    let v = Bitvec.copy (antic.Reference.block_in b) in
    ignore (Bitvec.diff_into ~into:v (avail.Reference.block_out p));
    if not (Label.equal p entry) then begin
      let movable = Bitvec.inter (Local.transp local p) (antic.Reference.block_out p) in
      ignore (Bitvec.diff_into ~into:v movable)
    end;
    v
  in
  let earliest_tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace earliest_tbl e (earliest e)) (Cfg.edges g);
  let laterin = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace laterin l (Bitvec.create_full n)) (Cfg.labels g);
  Hashtbl.replace laterin entry (Bitvec.create n);
  let order = Order.compute g in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if not (Label.equal b entry) then begin
          let scratch = Bitvec.create_full n in
          List.iter
            (fun p ->
              let later_pb = Bitvec.copy (Hashtbl.find laterin p) in
              ignore (Bitvec.diff_into ~into:later_pb (Local.antloc local p));
              ignore (Bitvec.union_into ~into:later_pb (Hashtbl.find earliest_tbl (p, b)));
              ignore (Bitvec.inter_into ~into:scratch later_pb))
            (Cfg.predecessors g b);
          if Bitvec.blit ~src:scratch ~dst:(Hashtbl.find laterin b) then changed := true
        end)
      (Order.reverse_postorder order)
  done;
  let insert =
    List.filter_map
      (fun (p, b) ->
        let v = Bitvec.copy (Hashtbl.find laterin p) in
        ignore (Bitvec.diff_into ~into:v (Local.antloc local p));
        ignore (Bitvec.union_into ~into:v (Hashtbl.find earliest_tbl (p, b)));
        ignore (Bitvec.diff_into ~into:v (Hashtbl.find laterin b));
        if Bitvec.is_empty v then None else Some ((p, b), v))
      (Cfg.edges g)
  in
  let delete =
    List.filter_map
      (fun b ->
        if Label.equal b entry then None
        else begin
          let v = Bitvec.copy (Local.antloc local b) in
          ignore (Bitvec.diff_into ~into:v (Hashtbl.find laterin b));
          if Bitvec.is_empty v then None else Some (b, v)
        end)
      (Cfg.labels g)
  in
  (insert, delete)

let check_same_placement name g =
  let a = Lcm_edge.analyze g in
  let ref_insert, ref_delete = reference_lcm g in
  let edge_str (p, b) = Printf.sprintf "B%d->B%d" p b in
  Alcotest.(check (list string))
    (name ^ ": insert edges")
    (List.map (fun (e, _) -> edge_str e) ref_insert)
    (List.map (fun (e, _) -> edge_str e) a.Lcm_edge.insert);
  List.iter2
    (fun (e, v) (_, v') ->
      Alcotest.(check bool) (name ^ ": insert set at " ^ edge_str e) true (Bitvec.equal v v'))
    ref_insert a.Lcm_edge.insert;
  Alcotest.(check (list int))
    (name ^ ": delete blocks")
    (List.map fst ref_delete)
    (List.map fst a.Lcm_edge.delete);
  List.iter2
    (fun (b, v) (_, v') ->
      Alcotest.(check bool)
        (name ^ ": delete set at B" ^ string_of_int b)
        true (Bitvec.equal v v'))
    ref_delete a.Lcm_edge.delete

let test_lcm_matches_reference_suites () =
  List.iter (fun w -> check_same_placement w.Suites.name (Suites.graph w)) Suites.all

let test_lcm_matches_reference_random () =
  let rng = Prng.of_int 515151 in
  for case = 1 to 50 do
    let num_blocks = Prng.int_in rng 3 30 in
    let g =
      Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng
    in
    check_same_placement (Printf.sprintf "random-%d" case) g
  done

let suite =
  [
    Alcotest.test_case "forward/inter" `Quick test_forward_inter;
    Alcotest.test_case "forward/union" `Quick test_forward_union;
    Alcotest.test_case "backward/inter" `Quick test_backward_inter;
    Alcotest.test_case "backward/union" `Quick test_backward_union;
    Alcotest.test_case "kill" `Quick test_kill;
    Alcotest.test_case "sweep accounting" `Quick test_counts_monotone;
    Alcotest.test_case "worklist ≡ sweep (100 random CFGs × 4 shapes)" `Quick
      test_worklist_equals_sweep;
    Alcotest.test_case "lcm-edge placement ≡ naive reference (suites)" `Quick
      test_lcm_matches_reference_suites;
    Alcotest.test_case "lcm-edge placement ≡ naive reference (random)" `Quick
      test_lcm_matches_reference_random;
    QCheck_alcotest.to_alcotest prop_kernel_equals_reference;
    QCheck_alcotest.to_alcotest prop_restart_equals_reference;
    Alcotest.test_case "GEN/KEEP kernel ≡ closure reference (Bril corpus)" `Quick
      test_kernel_bril_corpus;
  ]
