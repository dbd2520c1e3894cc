(* The builder's shortcuts against the full computations they stand in
   for.  A graph from the builder is born with three things no one
   computed for it afterwards: a validation mark, a candidate pool and each
   block's event memo.  On every builder-made graph — and on copies of it
   edited by [Patch], whose edits invalidate some of them — the mark must
   agree with a full [Validate.check] forced by bumping the shape version,
   the pool must equal the label-order pool built the old way, expression
   by expression, and the events must equal a fresh recount. *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Validate = Lcm_cfg.Validate
module Patch = Lcm_cfg.Patch
module Bril = Lcm_frontend.Bril
module Gencfg = Lcm_eval.Gencfg
module Prng = Lcm_support.Prng
module Expr = Lcm_ir.Expr
module Instr = Lcm_ir.Instr
module Expr_pool = Lcm_ir.Expr_pool

(* The pool as it was built before graphs carried a numbering: every
   candidate in label order, first occurrence first. *)
let reference_pool g =
  let pool = Expr_pool.create () in
  List.iter
    (fun l ->
      List.iter
        (fun i -> match Instr.candidate i with Some e -> ignore (Expr_pool.add pool e) | None -> ())
        (Cfg.instrs g l))
    (Cfg.labels g);
  pool

(* A block's events counted afresh from its instructions. *)
let recount nb instrs =
  let pool = Cfg.numbering_pool nb in
  let write v = let n = Cfg.numbering_var nb v in if n >= 0 then [ -1 - n ] else [] in
  let var = function Expr.Var v -> write v | Expr.Const _ -> [] in
  List.concat_map
    (function
      | Instr.Assign (v, e) ->
        (if Expr.is_candidate e then [ Expr_pool.index_exn pool e ] else []) @ write v
      | Instr.Print _ -> []
      | Instr.Effect e ->
        (match e.Instr.eff_dest with Some (v, _) -> write v | None -> []) @ List.concat_map var e.Instr.eff_args)
    instrs

(* The full check, forced past the mark by a shape edit that changes
   nothing. *)
let forced_check g =
  let g = Cfg.copy g in
  Cfg.set_term g (Cfg.entry g) (Cfg.term g (Cfg.entry g));
  if Cfg.validated g then Alcotest.fail "a shape edit kept the validation mark";
  Validate.check g

let show_pool p = String.concat ", " (List.map (fun (_, e) -> Expr.to_string e) (Expr_pool.to_list p))

let check_shortcuts what g =
  (match forced_check g with
  | [] -> ()
  | issues ->
    if Cfg.validated g then
      Alcotest.failf "%s: marked valid, but the full check reports: %s" what (String.concat "; " issues));
  let pool = Cfg.candidate_pool g and want = reference_pool g in
  if show_pool pool <> show_pool want then
    Alcotest.failf "%s: pool [%s], label-order reference [%s]" what (show_pool pool) (show_pool want);
  let nb = Cfg.numbering g in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          List.iter
            (fun v -> if Cfg.numbering_var nb v < 0 then Alcotest.failf "%s: variable %s is not numbered" what v)
            (Option.to_list (Instr.defs i) @ Instr.uses i))
        (Cfg.instrs g l);
      let ev = Cfg.events g nb l in
      let got = Array.sub ev 1 (Array.length ev - 1) and want = Array.of_list (recount nb (Cfg.instrs g l)) in
      if got <> want then Alcotest.failf "%s: B%d's events differ from a fresh recount" what l)
    (Cfg.labels g)

(* Copies of [g] under a few [Patch] edits: a body swap (the mark
   survives it), a redirected edge and an added block (both take the full
   check). *)
let edited rng g =
  let labels = Array.of_list (Cfg.labels g) in
  let pick () = Prng.choose rng labels in
  let try_patch edits =
    let g' = Cfg.copy g in
    match Patch.apply g' edits with
    | _ -> Some g'
    | exception Patch.Error _ -> None
  in
  let body = Patch.Set_instrs (pick (), Cfg.instrs g (pick ()) @ [ Instr.Assign ("fresh", Expr.Binary (Expr.Mul, Expr.Var "p", Expr.Var "q")) ]) in
  let l = pick () in
  let redirect =
    match Cfg.term g l with
    | Cfg.Goto _ -> Patch.Set_term (l, Cfg.Goto (Cfg.exit_label g))
    | Cfg.Branch (c, a, _) -> Patch.Set_term (l, Cfg.Branch (c, a, Cfg.exit_label g))
    | Cfg.Halt -> body
  in
  let added = Patch.Add_block ([ Instr.Assign ("w", Expr.Binary (Expr.Add, Expr.Var "a", Expr.Var "b")) ], Cfg.Goto (Cfg.exit_label g)) in
  List.filter_map try_patch [ [ body ]; [ redirect ]; [ added; Patch.Set_term (Cfg.entry g, Cfg.Goto (Cfg.label_bound g)) ] ]

let check_with_edits rng what g =
  check_shortcuts what g;
  List.iteri
    (fun i g' ->
      if Cfg.validated g' && forced_check g' <> [] then Alcotest.failf "%s, edit %d: a stale validation mark" what i;
      check_shortcuts (Printf.sprintf "%s, edit %d" what i) g')
    (edited rng g);
  (* The edited copies share block records with [g]: its own shortcuts
     still hold. *)
  check_shortcuts (what ^ " after its copies were edited") g

(* Unreachable segments (dropped, their candidates with them), a
   label-first function (an entry stub) and a return value. *)
let tricky_bril =
  {|{"functions":[{"name":"f","instrs":[
      {"label":"top"},
      {"op":"add","dest":"x","type":"int","args":["a","b"]},
      {"op":"jmp","labels":["next"]},
      {"op":"mul","dest":"dead","type":"int","args":["q","q"]},
      {"op":"sub","dest":"x","type":"int","args":["b","a"]},
      {"label":"next"},
      {"op":"br","args":["c"],"labels":["top","out"]},
      {"label":"island"},
      {"op":"div","dest":"y","type":"int","args":["q","b"]},
      {"op":"jmp","labels":["next"]},
      {"label":"out"},
      {"op":"add","dest":"z","type":"int","args":["b","a"]},
      {"op":"ret","args":["z"]}]}]}|}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

let corpus () =
  Sys.readdir "bril" |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat "bril" f)))

let test_fixed () =
  let rng = Prng.of_int 11 in
  List.iter
    (fun (what, text) ->
      List.iter
        (fun (name, g) ->
          check_with_edits rng (what ^ ":" ^ name) g;
          check_with_edits rng (what ^ ":" ^ name ^ " as cfg text") (Cfg_text.parse (Cfg.to_string g)))
        (Bril.parse_program text))
    (("tricky", tricky_bril) :: corpus ());
  (* the unreachable segment and its candidates are gone *)
  let g = snd (List.hd (Bril.parse_program tricky_bril)) in
  if List.exists (fun (_, e) -> Expr.to_string e = "q * q" || Expr.to_string e = "q / b") (Expr_pool.to_list (Cfg.candidate_pool g))
  then Alcotest.fail "a candidate of a dropped segment is in the pool"

let test_random () =
  let rng = Prng.of_int 0xb17d in
  for i = 1 to 60 do
    let g = Gencfg.random_cfg rng in
    check_with_edits rng (Printf.sprintf "random %d as cfg text" i) (Cfg_text.parse (Cfg.to_string g));
    List.iter (fun (_, g) -> check_with_edits rng (Printf.sprintf "random %d as bril" i) g) (Bril.parse_program (Bril.print g))
  done

let suite =
  [
    Alcotest.test_case "builder: mark, pool and events on fixed graphs" `Quick test_fixed;
    Alcotest.test_case "builder: mark, pool and events on random graphs" `Quick test_random;
  ]
