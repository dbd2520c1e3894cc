(* The copy-on-write block table, its per-block memo and the validation
   mark against the whole-graph implementations they replaced, which are
   kept here as references: the printer, the static counts, the temp
   prefix and the structural check.  Chains of random mutations run on
   copies of graphs whose memos are already filled, so a memo that leaked
   across a copy, or survived an edit, shows up as a difference. *)

module Prng = Lcm_support.Prng
module Fresh = Lcm_support.Fresh
module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Label = Lcm_cfg.Label
module Order = Lcm_cfg.Order
module Validate = Lcm_cfg.Validate
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Gencfg = Lcm_eval.Gencfg
module Metrics = Lcm_eval.Metrics
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform
module Json = Lcm_server.Json
module Protocol = Lcm_server.Protocol
module Engine = Lcm_server.Engine
module Stats = Lcm_server.Stats

(* ---- references ---- *)

module Reference = struct
  let add_terminator buf = function
    | Cfg.Goto l ->
      Buffer.add_string buf "goto ";
      Label.add_to_buffer buf l
    | Cfg.Branch (c, a, b) ->
      Buffer.add_string buf "if ";
      Expr.add_operand buf c;
      Buffer.add_string buf " then ";
      Label.add_to_buffer buf a;
      Buffer.add_string buf " else ";
      Label.add_to_buffer buf b
    | Cfg.Halt -> Buffer.add_string buf "halt"

  (* The printer that walked every block and instruction per call. *)
  let to_string g =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "cfg ";
    Buffer.add_string buf (Cfg.name g);
    Buffer.add_string buf " (entry ";
    Label.add_to_buffer buf (Cfg.entry g);
    Buffer.add_string buf ", exit ";
    Label.add_to_buffer buf (Cfg.exit_label g);
    Buffer.add_char buf ')';
    List.iter
      (fun l ->
        Buffer.add_char buf '\n';
        Label.add_to_buffer buf l;
        Buffer.add_char buf ':';
        List.iter
          (fun i ->
            Buffer.add_string buf "\n  ";
            Instr.add_to_buffer buf i)
          (Cfg.instrs g l);
        Buffer.add_string buf "\n  ";
        add_terminator buf (Cfg.term g l))
      (Cfg.labels g);
    Buffer.contents buf

  (* The recount over every instruction of every block. *)
  let static_counts g =
    let candidate_occurrences = ref 0 and copies = ref 0 and instrs = ref 0 in
    List.iter
      (fun l ->
        List.iter
          (fun i ->
            incr instrs;
            match i with
            | Instr.Assign (_, e) -> if Expr.is_candidate e then incr candidate_occurrences else incr copies
            | Instr.Print _ | Instr.Effect _ -> ())
          (Cfg.instrs g l))
      (Cfg.labels g);
    {
      Metrics.blocks = List.length (Cfg.labels g);
      instrs = !instrs;
      candidate_occurrences = !candidate_occurrences;
      copies_and_moves = !copies;
    }

  let temp_prefix g = Fresh.prefix ~existing:(Cfg.all_vars g) "_h"

  (* The structural check without the mark. *)
  let validate g =
    let issues = ref [] in
    let report fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
    let labels = Cfg.labels g in
    (match labels with
    | first :: _ when Label.equal first (Cfg.entry g) -> ()
    | _ -> report "entry block is not first in label order");
    List.iter
      (fun l ->
        List.iter
          (fun dst ->
            if not (Cfg.mem g dst) then report "%a targets dead label %a" Label.pp l Label.pp dst)
          (Cfg.successors g l);
        match Cfg.term g l with
        | Cfg.Halt ->
          if not (Label.equal l (Cfg.exit_label g)) then report "non-exit block %a halts" Label.pp l
        | Cfg.Goto _ | Cfg.Branch _ ->
          if Label.equal l (Cfg.exit_label g) then report "exit block does not halt")
      labels;
    if Cfg.predecessors g (Cfg.entry g) <> [] then report "entry block has predecessors";
    let order = Order.compute g in
    List.iter
      (fun l ->
        if (not (Order.is_reachable order l)) && not (Label.equal l (Cfg.exit_label g)) then
          report "block %a is unreachable" Label.pp l)
      labels;
    List.rev !issues
end

(* ---- random mutations ---- *)

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Prng.int rng (List.length xs)))

(* Names around the temp seed, so the prefix memo sees runs of each
   length come and go. *)
let names = [| "x"; "y"; "a"; "_h"; "_h0"; "_h_1"; "_h__"; "a_h"; "_g" |]

let random_instr rng g =
  let var () = names.(Prng.int rng (Array.length names)) in
  let existing = List.concat_map (Cfg.instrs g) (Cfg.labels g) in
  match Prng.int rng 5 with
  | 0 -> Instr.Assign (var (), Expr.Binary (Expr.Add, Expr.Var (var ()), Expr.Var (var ())))
  | 1 -> Instr.Assign (var (), Expr.Atom (Expr.Const (Prng.int rng 9)))
  | 2 -> Instr.Print (Expr.Var (var ()))
  | _ -> (
    match pick rng existing with
    | Some i -> i
    | None -> Instr.Assign (var (), Expr.Unary (Expr.Neg, Expr.Var (var ()))))

let random_body rng g = List.init (Prng.int rng 4) (fun _ -> random_instr rng g)

(* Any label below the bound, removed ones included: a terminator may
   name a dead block, which only validation refuses. *)
let random_target rng g = Prng.int rng (Cfg.label_bound g)

let targets_live g =
  List.for_all (fun l -> List.for_all (Cfg.mem g) (Cfg.successors g l)) (Cfg.labels g)

type op =
  | Set_instrs
  | Append
  | Prepend
  | Set_term
  | Add_block
  | Split_edge
  | Remove_unreachable
  | Merge

let ops =
  [| Set_instrs; Append; Prepend; Set_term; Add_block; Split_edge; Split_edge; Remove_unreachable; Merge |]

let mutate rng g =
  let block () = pick rng (Cfg.labels g) in
  match ops.(Prng.int rng (Array.length ops)) with
  | Set_instrs -> Option.iter (fun l -> Cfg.set_instrs g l (random_body rng g)) (block ())
  | Append -> Option.iter (fun l -> Cfg.append_instr g l (random_instr rng g)) (block ())
  | Prepend -> Option.iter (fun l -> Cfg.prepend_instr g l (random_instr rng g)) (block ())
  | Set_term ->
    Option.iter
      (fun l ->
        let term =
          match Prng.int rng 6 with
          | 0 -> Cfg.Halt
          | 1 | 2 ->
            let c = Expr.Var names.(Prng.int rng (Array.length names)) in
            Cfg.Branch (c, random_target rng g, random_target rng g)
          | _ -> Cfg.Goto (random_target rng g)
        in
        Cfg.set_term g l term)
      (block ())
  | Add_block ->
    let target = random_target rng g in
    let fresh = Cfg.add_block g ~instrs:(random_body rng g) ~term:(Cfg.Goto target) in
    (* Usually wire it in, so the graph can stay valid. *)
    if Prng.int rng 4 > 0 then
      Option.iter
        (fun l -> match Cfg.term g l with Cfg.Goto _ -> Cfg.set_term g l (Cfg.Goto fresh) | _ -> ())
        (block ())
  | Split_edge ->
    if targets_live g then
      Option.iter (fun (src, dst) -> ignore (Cfg.split_edge g src dst)) (pick rng (Cfg.edges g))
  | Remove_unreachable -> if targets_live g then Cfg.remove_unreachable g
  | Merge -> if Reference.validate g = [] then Cfg.merge_straight_pairs g

(* ---- the chain ---- *)

let fail fmt = Printf.ksprintf QCheck2.Test.fail_report fmt

let counts_equal (a : Metrics.static_counts) (b : Metrics.static_counts) = a = b

(* The memoised views of [g] against the references, and the mark's
   verdict against the full check.  [Validate.check] runs last: it may
   set the mark. *)
let check_views what g =
  let text = Reference.to_string g in
  if not (String.equal (Cfg.to_string g) text) then
    fail "%s: memoised text differs from the reference printer" what;
  if not (counts_equal (Metrics.static_counts g) (Reference.static_counts g)) then
    fail "%s: folded counts differ from a recount" what;
  let c = Cfg.counts g in
  if c.Cfg.n_instrs <> Cfg.num_instrs g || c.Cfg.n_candidates <> Cfg.num_candidate_occurrences g then
    fail "%s: Cfg.counts disagrees with num_instrs / num_candidate_occurrences" what;
  if not (String.equal (Cfg.temp_prefix g) (Reference.temp_prefix g)) then
    fail "%s: temp prefix %S, recount %S" what (Cfg.temp_prefix g) (Reference.temp_prefix g);
  let reference = Reference.validate g in
  let marked = Cfg.validated g in
  (match (Validate.check g, reference) with
  | [], _ :: _ ->
    fail "%s: check passed (marked before: %b) where the full check finds: %s" what marked
      (String.concat "; " reference)
  | _ :: _, [] -> fail "%s: check failed on a graph the full check accepts" what
  | _ -> ());
  if reference = [] && not (Cfg.validated g) then fail "%s: a passing check left no mark" what

let chain ~seed ~steps g0 =
  let rng = Prng.of_int seed in
  let rec go step g =
    if step >= steps then true
    else begin
      (* Fill the source's memos (and its mark, when valid) first, so the
         copy shares filled records. *)
      check_views (Printf.sprintf "step %d source" step) g;
      let text = Cfg.to_string g and counts = Metrics.static_counts g in
      let prefix = Cfg.temp_prefix g and marked = Cfg.validated g in
      let bodies = List.map (fun l -> (l, Cfg.instrs g l, Cfg.term g l)) (Cfg.labels g) in
      let c = Cfg.copy g in
      for _ = 0 to Prng.int rng 3 do
        mutate rng c
      done;
      let what = Printf.sprintf "step %d" step in
      if
        not
          (List.for_all
             (fun (l, is, t) -> Cfg.mem g l && Cfg.instrs g l == is && Cfg.term g l = t)
             bodies
          && List.length (Cfg.labels g) = List.length bodies)
      then fail "%s: mutating the copy changed the source's blocks" what;
      if not (String.equal (Cfg.to_string g) text && String.equal (Reference.to_string g) text) then
        fail "%s: mutating the copy changed the source's text" what;
      if not (counts_equal (Metrics.static_counts g) counts) then
        fail "%s: mutating the copy changed the source's counts" what;
      if not (String.equal (Cfg.temp_prefix g) prefix) then
        fail "%s: mutating the copy changed the source's prefix" what;
      if Cfg.validated g <> marked then fail "%s: mutating the copy changed the source's mark" what;
      check_views (what ^ " copy") c;
      (* Mostly walk on from the copy; sometimes branch again from the
         source, whose records the first copy shares, and more often when
         the copy is broken, so that valid (marked) graphs keep being
         edited. *)
      let next =
        if Prng.int rng 4 = 0 then g
        else if Reference.validate c = [] || Prng.int rng 2 = 0 then c
        else g
      in
      go (step + 1) next
    end
  in
  go 0 g0

let prop_chain =
  QCheck2.Test.make ~name:"memoised text, counts, prefix and mark ≡ references (random mutation chains)"
    ~count:150 (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 77) in
      let num_blocks = Prng.int_in rng 3 25 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      chain ~seed ~steps:20 g)

let test_chain_bril () =
  List.iteri
    (fun i (name, g) -> Alcotest.(check bool) name true (chain ~seed:(31 * i) ~steps:16 g))
    (Test_solver.bril_corpus ())

(* Edge splits on a validated graph keep the mark (the transform's
   splits no longer rebuild the adjacency), and the split graph passes
   the full check. *)
let test_split_keeps_mark () =
  List.iter
    (fun (name, g) ->
      let g = Cfg.copy g in
      Alcotest.(check (list string)) (name ^ " valid") [] (Validate.check g);
      List.iter
        (fun (src, dst) ->
          if List.exists (Label.equal dst) (Cfg.successors g src) then ignore (Cfg.split_edge g src dst))
        (Cfg.edges g);
      Alcotest.(check bool) (name ^ " still marked") true (Cfg.validated g);
      Alcotest.(check (list string)) (name ^ " full check") [] (Reference.validate g);
      Cfg.set_term g (Cfg.entry g) (Cfg.Goto (Cfg.exit_label g));
      Alcotest.(check bool) (name ^ " set_term clears the mark") false (Cfg.validated g))
    (Test_solver.bril_corpus ())

(* ---- the delta path through the engine ---- *)

let now = Unix.gettimeofday

let exec cfg frame =
  match Protocol.parse_request frame with
  | Error (_, _, _, m) -> Alcotest.failf "bad test frame: %s" m
  | Ok req -> Engine.execute cfg ~now ~arrival:(now ()) ~deadline:None req

let field name j = match Json.member name j with Some v -> v | None -> fail "response lacks %S" name

(* A delta's wire edits and the same edits as text for the reference:
   one to three body edits, and sometimes a block added on a goto edge. *)
let random_wire_delta rng g =
  let blocks = Cfg.labels g in
  let body_edit () =
    let l = Option.get (pick rng blocks) in
    let body = Cfg.instrs g l in
    let body =
      match Prng.int rng 3 with
      | 0 -> body @ [ random_instr rng g ]
      | 1 -> List.filteri (fun i _ -> i > 0) body
      | _ -> random_instr rng g :: body
    in
    Json.Obj
      [
        ("block", Json.String (Label.to_string l));
        ("instrs", Json.List (List.map (fun i -> Json.String (Instr.to_string i)) body));
      ]
  in
  let bodies = List.init (1 + Prng.int rng 3) (fun _ -> body_edit ()) in
  let gotos = List.filter (fun l -> match Cfg.term g l with Cfg.Goto _ -> true | _ -> false) blocks in
  match (Prng.int rng 3, pick rng gotos) with
  | 0, Some l ->
    let target = match Cfg.term g l with Cfg.Goto t -> t | _ -> assert false in
    let fresh = Cfg.label_bound g in
    bodies
    @ [
        Json.Obj
          [
            ("add", Json.Bool true);
            ("instrs", Json.List [ Json.String (Instr.to_string (random_instr rng g)) ]);
            ("term", Json.String ("goto " ^ Label.to_string target));
          ];
        Json.Obj
          [
            ("block", Json.String (Label.to_string l));
            ("term", Json.String ("goto " ^ Label.to_string fresh));
          ];
      ]
  | _ -> bodies

(* From scratch: parse the patched text afresh (no memo, no mark, no
   capture), solve, transform, and print and count with the references. *)
let scratch_response ~id ~handle ~solve text =
  let g = Cfg_text.parse text in
  let a, _ = Lcm_edge.analyze_keep g in
  let g', _ = Transform.apply g (Lcm_edge.spec g a) in
  Protocol.ok_delta ~id:(Json.Int id) ~trace_id:"t" ~algorithm:"lcm-edge" ~validated:false
    ~extra:[ ("worker", Json.Int 0); ("handle", Json.String handle); ("solve", solve) ]
    ~program:(Reference.to_string g') ~before:(Reference.static_counts g)
    ~after:(Reference.static_counts g') ~timing:None ()

let engine_chain ~seed ~deltas g0 =
  let rng = Prng.of_int seed in
  (* Wire edits name blocks by their canonical-text labels: start from a
     parsed graph, as the engine does. *)
  let g0 = Cfg_text.parse (Cfg.to_string g0) in
  let cfg = Engine.default_config ~no_timing:true ~worker_id:0 (Stats.create ()) in
  let retain =
    exec cfg
      (Json.to_string
         (Json.Obj
            [
              ("id", Json.Int 0);
              ("trace_id", Json.String "t");
              ("op", Json.String "run");
              ("format", Json.String "cfg");
              ("retain", Json.Bool true);
              ("program", Json.String (Cfg.to_string g0));
            ]))
  in
  let handle =
    match Json.to_string_opt (field "handle" (Json.parse retain)) with
    | Some h -> h
    | None -> fail "retain response carries no handle"
  in
  (* The reference state is the patched text, re-parsed every round. *)
  let text = ref (Reference.to_string g0) in
  for i = 1 to deltas do
    let g = Cfg_text.parse !text in
    let edits = random_wire_delta rng g in
    let frame =
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int i);
             ("trace_id", Json.String "t");
             ("op", Json.String "delta");
             ("handle", Json.String handle);
             ("edits", Json.List edits);
           ])
    in
    let resp = exec cfg frame in
    let j = Json.parse resp in
    (match Json.to_string_opt (field "status" j) with
    | Some "ok" -> ()
    | _ -> fail "delta %d refused: %s" i resp);
    (* The same patch on the reference text. *)
    let reference = Cfg_text.parse !text in
    (match Protocol.delta_edits_of_json (Json.List edits) with
    | Error m -> fail "edits: %s" m
    | Ok wire ->
      ignore
        (Lcm_cfg.Patch.apply reference
           (List.concat_map
              (fun (e : Protocol.delta_edit) ->
                let term s =
                  match Cfg_text.parse_term_line s with
                  | Some (Cfg_text.T_goto n) -> Cfg.Goto n
                  | _ -> fail "unexpected terminator %S" s
                in
                if e.Protocol.d_add then
                  [
                    Lcm_cfg.Patch.Add_block
                      ( List.map Cfg_text.parse_instr_line (Option.get e.Protocol.d_instrs),
                        term (Option.get e.Protocol.d_term) );
                  ]
                else
                  let l = Scanf.sscanf (Option.get e.Protocol.d_block) "B%d" Fun.id in
                  (match e.Protocol.d_instrs with
                  | Some ss -> [ Lcm_cfg.Patch.Set_instrs (l, List.map Cfg_text.parse_instr_line ss) ]
                  | None -> [])
                  @
                  match e.Protocol.d_term with
                  | Some s -> [ Lcm_cfg.Patch.Set_term (l, term s) ]
                  | None -> [])
              wire)));
    text := Reference.to_string reference;
    let expected = scratch_response ~id:i ~handle ~solve:(field "solve" j) !text in
    if not (String.equal resp expected) then
      fail "delta %d: response differs from the from-scratch path\n got: %s\nwant: %s" i resp expected
  done;
  true

let prop_engine_chain =
  QCheck2.Test.make ~name:"engine delta chain ≡ from-scratch responses, byte for byte (12 deltas)"
    ~count:25
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Prng.of_int (seed + 991) in
      let num_blocks = Prng.int_in rng 4 30 in
      let g = Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng in
      engine_chain ~seed ~deltas:12 g)

let test_engine_chain_bril () =
  List.iteri
    (fun i (name, g) ->
      Alcotest.(check bool) name true (engine_chain ~seed:(13 * i) ~deltas:12 g))
    (Test_solver.bril_corpus ())

(* A block prints from its plain text memo, from its escaped memo (which
   replaces the text once the graph is escaped for a response), or from
   no memo at all: the three prints, and a graph mixing them, are the
   reference printer's bytes.  Real programs (the Bril corpus) and a
   1,000-block generated graph. *)
let test_print_memo_kinds () =
  let check name g =
    let expected = Reference.to_string g in
    let plain_free = Cfg.to_string g in
    let plain_memo = Cfg.to_string g in
    let literal = Cfg.to_json g in
    let escaped_memo = Cfg.to_string g in
    (* A copy with one block replaced: its other blocks keep their escaped
       memos, the new record has none. *)
    let mixed = Cfg.copy g in
    let l = List.hd (List.rev (Cfg.labels mixed)) in
    Cfg.set_instrs mixed l (Cfg.instrs mixed l);
    let escape s =
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      Lcm_obs.Json.escape_into buf s;
      Buffer.add_char buf '"';
      Buffer.contents buf
    in
    List.iter
      (fun (what, got) -> Alcotest.(check string) (name ^ ": " ^ what) expected got)
      [
        ("memo-free print", plain_free);
        ("plain-memo print", plain_memo);
        ("escaped-memo print", escaped_memo);
        ("escaped-memo print, again", Cfg.to_string g);
        ("mixed print", Cfg.to_string mixed);
      ];
    Alcotest.(check string) (name ^ ": escaped literal") (escape expected) literal
  in
  List.iter (fun (name, g) -> check name g) (Test_solver.bril_corpus ());
  check "gencfg 1000"
    (Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks = 1000 } (Prng.of_int 1000))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_chain;
    Alcotest.test_case "memoised views ≡ references (Bril corpus chains)" `Quick test_chain_bril;
    Alcotest.test_case "split_edge keeps the validation mark" `Quick test_split_keeps_mark;
    Alcotest.test_case "plain-memo, escaped-memo and memo-free prints are the reference's bytes" `Quick
      test_print_memo_kinds;
    QCheck_alcotest.to_alcotest prop_engine_chain;
    Alcotest.test_case "engine delta chain ≡ from-scratch responses (Bril corpus)" `Quick
      test_engine_chain_bril;
  ]
