(* The builder-backed readers against the readers they replaced.

   [Ref_bril] and [Ref_cfg_text] are the Bril and CFG text readers as they
   were before both emitted into the graph builder.  A seed-deterministic,
   structure-aware mutator rewrites the Bril and CFG text of random graphs
   and of the vendored Bril corpus — truncations, duplicate and unknown
   labels, duplicate keys, non-string arguments, bad types, label-first
   functions, unreachable segments, odd literals — and each reader must
   give the same graph (by digest and by text) or the same typed error
   (message and JSON path, or message and line).  Inputs that once told
   the readers apart are kept under fuzz/ and replayed first.

   [Ref_miniimp] is the MiniImp reader as it was before it emitted into
   the builder: a token list, a parser over it and a lowering through
   [Cfg.add_block].  Its graphs must print the same, number the same pool
   and carry born-valid shortcuts that a recount confirms; its errors must
   be the same kind, message, line and column, on generated programs, on
   every MiniImp source of the examples and the tests, and on seeded
   token-level mutations of them. *)

module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Bril = Lcm_frontend.Bril
module Gencfg = Lcm_eval.Gencfg
module Prng = Lcm_support.Prng
module Json = Lcm_obs.Json

type outcome =
  | Graphs of (string * string * string) list (* name, digest, text *)
  | Failed of string * string (* message, JSON path or line *)

let graphs gs = Graphs (List.map (fun (n, g) -> (n, Cfg.digest g, Cfg.to_string g)) gs)

let bril_outcome parse text =
  match parse text with
  | gs -> graphs gs
  | exception Bril.Err (m, path) -> Failed (m, path)

let cfg_outcome parse text =
  match parse text with
  | g -> graphs [ (Cfg.name g, g) ]
  | exception Cfg_text.Parse_error (m, line) -> Failed (m, string_of_int line)

let show = function
  | Graphs gs -> String.concat ", " (List.map (fun (n, d, _) -> n ^ "=" ^ d) gs)
  | Failed (m, at) -> Printf.sprintf "error %S at %s" m at

let disagree what got want text =
  Printf.sprintf "%s readers disagree on:\n%s\nreader:    %s\nreference: %s" what text (show got) (show want)

(* [None] when the readers agree on [text]. *)
let check_bril text =
  let got = bril_outcome Bril.parse_program text and want = bril_outcome Ref_bril.parse_program text in
  if got = want then None else Some (disagree "bril" got want text)

let check_cfg text =
  let got = cfg_outcome Cfg_text.parse text and want = cfg_outcome Ref_cfg_text.parse text in
  if got = want then None else Some (disagree "cfg" got want text)

(* ---- CFG text mutations, on lines ---- *)

let lines text = Array.of_list (String.split_on_char '\n' text)
let unlines a = String.concat "\n" (Array.to_list a)

let insert_at a i x =
  Array.concat [ Array.sub a 0 i; [| x |]; Array.sub a i (Array.length a - i) ]

let odd_words =
  [| "0x1F"; "1_000"; "+4"; "-0"; "--x"; "!7"; "-"; "B"; "B-1"; "x.1"; "_t"; ".v"; "99999999999999999999"; "3"; ":=" |]

let odd_lines =
  [|
    "do call @f a 1 -> r int";
    "do store p x";
    "do call -> r";
    "print";
    "print a b";
    "x := a ? b";
    "x := a + b + c";
    "3 := a";
    "print := a";
    "do := a + b";
    "goto B0x2";
    "if 0x1 then B1 else B1";
    "if a then B1";
    "halt now";
    "cfg again (entry B0, exit B1)";
    "x :=\ta";
    "  \t x := a * b \r";
  |]

let mutate_cfg rng text =
  let a = lines text in
  let n = Array.length a in
  let pick () = Prng.int rng n in
  let block_lines =
    List.filter (fun i -> let l = String.trim a.(i) in String.length l > 1 && l.[0] = 'B') (List.init n Fun.id)
  in
  match Prng.int rng 12 with
  | 0 -> String.sub text 0 (Prng.int rng (String.length text + 1))
  | 1 when block_lines <> [] ->
    (* a duplicate block header *)
    let i = Prng.choose_list rng block_lines in
    unlines (insert_at a (pick ()) a.(i))
  | 2 ->
    (* an unknown label *)
    let i = pick () in
    a.(i) <- a.(i) ^ (if Prng.bool rng then " B9999" else "");
    unlines (Array.map (fun l -> if Prng.int rng 8 = 0 then String.concat "B77" (String.split_on_char 'B' l) else l) a)
  | 3 ->
    (* an unreachable segment that computes a candidate of its own *)
    let seg = [| "B4242:"; "  zz := qq * qq"; "  yy := a + b"; "  goto B1" |] in
    unlines (Array.append a seg)
  | 4 ->
    let i = pick () in
    let w = String.split_on_char ' ' a.(i) in
    let w = List.map (fun x -> if Prng.int rng 3 = 0 then Prng.choose rng odd_words else x) w in
    a.(i) <- String.concat " " w;
    unlines a
  | 5 -> unlines (insert_at a (pick ()) ("  " ^ Prng.choose rng odd_lines))
  | 6 ->
    (* drop a line: a terminator, a header, a block label *)
    let i = pick () in
    unlines (Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1)))
  | 7 ->
    (* swap two lines *)
    let i = pick () and j = pick () in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x;
    unlines a
  | 8 ->
    (* a block after the exit halts, or the exit does not *)
    unlines (Array.append a [| "B88:"; (if Prng.bool rng then "  halt" else "  goto B1") |])
  | 9 ->
    (* B0 or B1 again: the later body replaces the earlier one *)
    let l = if Prng.bool rng then "B0:" else "B1:" in
    unlines (Array.append a [| l; "  w := a - b"; (if l = "B1:" then "  halt" else "  goto B1") |])
  | 10 -> unlines (Array.map (fun l -> if Prng.int rng 4 = 0 then "  " ^ l ^ " \t" else l) a)
  | _ -> text

(* ---- Bril mutations, on the JSON tree ---- *)

let rec map_instrs f (v : Json.t) : Json.t =
  match v with
  | Json.Obj members ->
    Json.Obj
      (List.map
         (fun (k, x) ->
           match (k, x) with
           | "instrs", Json.List is -> (k, Json.List (f is))
           | _ -> (k, map_instrs f x))
         members)
  | Json.List xs -> Json.List (List.map (map_instrs f) xs)
  | v -> v

let insert_list l at x = List.filteri (fun i _ -> i < at) l @ (x :: List.filteri (fun i _ -> i >= at) l)

let label_names is =
  List.filter_map (function Json.Obj m -> Option.bind (List.assoc_opt "label" m) Json.to_string_opt | _ -> None) is

let mutate_instr rng (i : Json.t) : Json.t =
  match i with
  | Json.Obj members ->
    let pick n = Prng.int rng n in
    let members =
      match pick 7 with
      | 0 when members <> [] ->
        (* a duplicate key, first or second *)
        let k, _ = List.nth members (pick (List.length members)) in
        let wrong = [| Json.Int 3; Json.Null; Json.String "int"; Json.List []; Json.Obj [] |] in
        insert_list members (pick (List.length members + 1)) (k, wrong.(pick (Array.length wrong)))
      | 1 ->
        (* a non-string argument *)
        List.map (fun (k, x) -> if k = "args" then (k, Json.List [ Json.String "a"; Json.Int 1 ]) else (k, x)) members
      | 2 ->
        (* a bad type *)
        let bad = [| Json.Int 7; Json.Obj [ ("ptr", Json.String "int"); ("x", Json.Int 1) ]; Json.String "float"; Json.Null |] in
        List.map (fun (k, x) -> if k = "type" then (k, bad.(pick (Array.length bad))) else (k, x)) members
      | 3 ->
        List.map (fun (k, x) -> if k = "labels" then (k, Json.List [ Json.String "nowhere" ]) else (k, x)) members
      | 4 -> List.filter (fun _ -> pick 4 <> 0) members
      | _ -> members
    in
    Json.Obj members
  | v -> v

let mutate_bril rng text =
  let tree = Json.parse text in
  let pick n = Prng.int rng n in
  let mutated =
    match pick 9 with
    | 0 -> None
    | 1 ->
      (* a duplicate label *)
      Some
        (map_instrs
           (fun is ->
             match label_names is with
             | [] -> is
             | ls -> insert_list is (pick (List.length is + 1)) (Json.Obj [ ("label", Json.String (Prng.choose_list rng ls)) ]))
           tree)
    | 2 ->
      (* a label-first function *)
      Some (map_instrs (fun is -> Json.Obj [ ("label", Json.String "top") ] :: is) tree)
    | 3 ->
      (* an unreachable segment with a fresh candidate, after a jump *)
      let seg =
        [
          Json.Obj [ ("op", Json.String "jmp"); ("labels", Json.List [ Json.String "after" ]) ];
          Json.Obj
            [
              ("op", Json.String "mul");
              ("dest", Json.String "dead");
              ("type", Json.String "int");
              ("args", Json.List [ Json.String "q"; Json.String "q" ]);
            ];
          Json.Obj [ ("label", Json.String "after") ];
        ]
      in
      Some (map_instrs (fun is -> let at = pick (List.length is + 1) in List.filteri (fun i _ -> i < at) is @ seg @ List.filteri (fun i _ -> i >= at) is) tree)
    | 4 | 5 -> Some (map_instrs (List.map (fun i -> if pick 6 = 0 then mutate_instr rng i else i)) tree)
    | 6 ->
      (* a ret with an argument mid-function *)
      Some
        (map_instrs
           (fun is -> insert_list is (pick (List.length is + 1)) (Json.Obj [ ("op", Json.String "ret"); ("args", Json.List [ Json.String "a" ]) ]))
           tree)
    | 7 -> Some (Json.Obj [ ("functions", Json.List [ tree; tree ]) ])
    | _ -> Some tree
  in
  let text = match mutated with Some t -> Json.to_string t | None -> text in
  if pick 6 = 0 then String.sub text 0 (pick (String.length text + 1)) else text

(* ---- inputs ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

let files dir suffix =
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f suffix) |> List.sort compare
    |> List.map (fun f -> read_file (Filename.concat dir f))
  else []

let corpus () = files "bril" ".json"

let fail_on = function
  | None -> ()
  | Some report -> Alcotest.fail report

let test_regressions () =
  List.iter (fun t -> fail_on (check_bril t)) (files "fuzz" ".json");
  List.iter (fun t -> fail_on (check_cfg t)) (files "fuzz" ".cfg")

(* fuzz/repeated_entry.cfg repeats B0 at line 13 and B1 at line 16: the
   first repeat is the error, from both readers. *)
let test_repeated_entry () =
  let text = read_file (Filename.concat "fuzz" "repeated_entry.cfg") in
  let expected = Failed ("duplicate block B0", "13") in
  Alcotest.(check string) "reader" (show expected) (show (cfg_outcome Cfg_text.parse text));
  Alcotest.(check string) "reference" (show expected) (show (cfg_outcome Ref_cfg_text.parse text));
  let lines = String.split_on_char '\n' text in
  let without_b0 = List.filteri (fun i _ -> i < 12 || i > 14) lines in
  Alcotest.(check string) "repeated exit" (show (Failed ("duplicate block B1", "13")))
    (show (cfg_outcome Cfg_text.parse (String.concat "\n" without_b0)))

let test_corpus () =
  List.iter
    (fun text ->
      fail_on (check_bril text);
      List.iter (fun (_, g) -> fail_on (check_cfg (Cfg.to_string g))) (Bril.parse_program text))
    (corpus ())

(* A fixed-seed budget: [runs] random graphs, each read as Bril and as CFG
   text, unmutated and under [mutations] mutations each, plus as many
   mutations of the corpus. *)
let runs = 150
let mutations = 6

let test_mutations () =
  let rng = Prng.of_int 0x5eed in
  let corpus = Array.of_list (corpus ()) in
  for _ = 1 to runs do
    let g = Gencfg.random_cfg rng in
    let ctext = Cfg.to_string g and btext = Bril.print g in
    fail_on (check_cfg ctext);
    fail_on (check_bril btext);
    for _ = 1 to mutations do
      fail_on (check_cfg (mutate_cfg rng ctext));
      fail_on (check_bril (mutate_bril rng btext));
      if Array.length corpus > 0 then fail_on (check_bril (mutate_bril rng (Prng.choose rng corpus)))
    done
  done

(* ---- MiniImp ---- *)

module Lower = Lcm_cfg.Lower
module Lexer = Lcm_ir.Lexer
module Parser = Lcm_ir.Parser
module Ast = Lcm_ir.Ast
module Expr_pool = Lcm_ir.Expr_pool

type imp_outcome =
  | Imp_graphs of (string * string) list (* name, text *)
  | Imp_failed of string * string * int * int (* lex or parse, message, line, column *)

let imp_outcome parse text =
  match parse text with
  | gs -> Imp_graphs (List.map (fun (n, g) -> (n, Cfg.to_string g)) gs)
  | exception Lexer.Lex_error (m, l, c) -> Imp_failed ("lex", m, l, c)
  | exception Parser.Parse_error (m, l, c) -> Imp_failed ("parse", m, l, c)

let show_imp = function
  | Imp_graphs gs -> String.concat ", " (List.map (fun (n, t) -> n ^ "=" ^ Digest.to_hex (Digest.string t)) gs)
  | Imp_failed (k, m, l, c) -> Printf.sprintf "%s error %S at %d:%d" k m l c

let pool_of g = String.concat ", " (List.map (fun (_, e) -> Lcm_ir.Expr.to_string e) (Expr_pool.to_list (Cfg.candidate_pool g)))

(* [None] when the readers agree on [text], as a program and as a single
   function.  Where both build graphs, the new one must also be born
   validated, number the reference's pool in the same order, and carry
   the shortcuts a recount confirms. *)
let check_imp text =
  let one parse_new parse_ref what =
    let got = imp_outcome parse_new text and want = imp_outcome parse_ref text in
    if got <> want then Some (Printf.sprintf "miniimp %s readers disagree on:\n%s\nreader:    %s\nreference: %s" what text (show_imp got) (show_imp want))
    else
      match (parse_new text, parse_ref text) with
      | gs, gs' ->
        List.find_map
          (fun ((n, g), (_, g')) ->
            if not (Cfg.validated g) then Some (Printf.sprintf "miniimp: %s is not born validated:\n%s" n text)
            else if pool_of g <> pool_of g' then
              Some (Printf.sprintf "miniimp: %s pools differ:\n%s\nreader:    %s\nreference: %s" n text (pool_of g) (pool_of g'))
            else begin
              Test_build.check_shortcuts ("miniimp " ^ n) g;
              None
            end)
          (List.combine gs gs')
      | exception _ -> None
  in
  match one Lower.parse_and_lower Ref_miniimp.Lower.parse_and_lower "program" with
  | Some _ as r -> r
  | None ->
    let single f text = [ ("f", f text) ] in
    one (single Lower.parse_and_lower_func) (single Ref_miniimp.Lower.parse_and_lower_func) "function"

(* A function of Gencfg chunks in sequence until the lowered graph has
   about [blocks] blocks, the shape the serving benchmark sends. *)
let gen_source rng ~blocks =
  let params = { Gencfg.num_stmts = 6; max_depth = 2; num_vars = 5; loop_bound = 2 } in
  let rec grow acc est =
    if est >= blocks then List.concat (List.rev acc)
    else begin
      let f = Gencfg.random_func ~params rng in
      let body = List.filter (function Ast.Return _ -> false | _ -> true) f.Ast.body in
      grow (body :: acc) (est + Cfg.num_blocks (Lower.func f) - 2)
    end
  in
  let body = grow [] 0 in
  Ast.to_string
    [ { Ast.name = "large"; params = Gencfg.func_inputs params; body = body @ [ Ast.Return (Ast.Var "a") ] } ]

(* The string literals of OCaml source text — ["..."] and [{|...|}] —
   that mention [function]: the MiniImp programs of the examples and the
   tests.  A literal the scan gets wrong is still a fine input: both
   readers must agree on any text. *)
let ocaml_strings text =
  let n = String.length text in
  let out = ref [] in
  let rec scan i =
    if i < n - 1 then
      match text.[i] with
      | '"' ->
        let rec close j = if j >= n then n else if text.[j] = '\\' then close (j + 2) else if text.[j] = '"' then j else close (j + 1) in
        let j = close (i + 1) in
        let raw = String.sub text (i + 1) (min n j - i - 1) in
        out := (try Scanf.unescaped raw with _ -> raw) :: !out;
        scan (j + 1)
      | '{' when text.[i + 1] = '|' ->
        let rec close j = if j >= n - 1 then n else if text.[j] = '|' && text.[j + 1] = '}' then j else close (j + 1) in
        let j = close (i + 2) in
        out := String.sub text (i + 2) (min n j - i - 2) :: !out;
        scan (j + 2)
      | '\'' when i + 2 < n && text.[i + 2] = '\'' -> scan (i + 3)
      | _ -> scan (i + 1)
  in
  scan 0;
  let mentions s =
    let rec at i = i + 8 <= String.length s && (String.sub s i 8 = "function" || at (i + 1)) in
    at 0
  in
  List.filter mentions (List.rev !out)

let imp_sources () =
  let in_files dir = List.concat_map ocaml_strings (files dir ".ml") in
  in_files "../examples" @ in_files "." @ files "cli" ".imp"
  @ List.map (fun w -> w.Lcm_eval.Suites.source) Lcm_eval.Suites.all

let test_imp_equiv () =
  let rng = Prng.of_int 0x1a9 in
  List.iter (fun blocks -> fail_on (check_imp (gen_source rng ~blocks))) [ 48; 400; 1000 ];
  let sources = imp_sources () in
  if List.length sources < 50 then Alcotest.failf "only %d MiniImp sources found" (List.length sources);
  List.iter (fun text -> fail_on (check_imp text)) sources;
  List.iter (fun t -> fail_on (check_imp t)) (files "fuzz" ".imp")

(* ---- MiniImp mutations, on tokens ---- *)

(* The source cut into pieces: runs of identifier characters, runs of
   blanks, and single other bytes. *)
let pieces text =
  let n = String.length text in
  let kind c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> 0
    | ' ' | '\t' | '\n' | '\r' -> 1
    | _ -> 2
  in
  let rec go i acc =
    if i >= n then Array.of_list (List.rev acc)
    else begin
      let k = kind text.[i] in
      let j = ref (i + 1) in
      if k <> 2 then while !j < n && kind text.[!j] = k do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
  in
  go 0 []

let is_token p = p <> "" && not (String.contains " \t\n\r" p.[0])

let mutate_imp rng text =
  let a = pieces text in
  let n = Array.length a in
  if n = 0 then text
  else begin
    let tokens = List.filter (fun i -> is_token a.(i)) (List.init n Fun.id) in
    let tok () = if tokens = [] then Prng.int rng n else Prng.choose_list rng tokens in
    let join a = String.concat "" (Array.to_list a) in
    let set i x = let a = Array.copy a in a.(i) <- x; join a in
    match Prng.int rng 9 with
    | 0 -> set (tok ()) "" (* a deleted token *)
    | 1 -> let i = tok () in set i (a.(i) ^ " " ^ a.(i)) (* a duplicated token *)
    | 2 ->
      (* two tokens swapped *)
      let i = tok () and j = tok () in
      let b = Array.copy a in
      b.(i) <- a.(j);
      b.(j) <- a.(i);
      join b
    | 3 -> let i = tok () in set i (a.(i) ^ (if Prng.bool rng then " {" else " }")) (* unbalanced braces *)
    | 4 ->
      let lits = List.filter (fun i -> a.(i).[0] >= '0' && a.(i).[0] <= '9') tokens in
      let i = if lits = [] then tok () else Prng.choose_list rng lits in
      set i (Prng.choose rng [| "99999999999999999999"; "4611686018427387904"; "4611686018427387903"; "007" |])
    | 5 ->
      (* a syntax error, and a stray '$' after it *)
      let i = tok () and j = tok () in
      let i, j = (min i j, max i j) in
      let b = Array.copy a in
      b.(i) <- "";
      b.(j) <- a.(j) ^ (if Prng.bool rng then "$" else " $ ");
      join b
    | 6 -> String.sub text 0 (Prng.int rng (String.length text + 1)) (* truncation *)
    | 7 -> let i = tok () in set i (Prng.choose rng [| "//"; "/"; "!"; "="; "=="; "<="; "do"; "else"; "function f() {"; "\n" |])
    | _ -> text
  end

let imp_runs = 120
let imp_mutations = 5

let test_imp_mutations () =
  let rng = Prng.of_int 0x1aa in
  let fixed = Array.of_list (imp_sources ()) in
  for i = 1 to imp_runs do
    let text = if i mod 2 = 0 then Prng.choose rng fixed else gen_source rng ~blocks:(8 + Prng.int rng 40) in
    for _ = 1 to imp_mutations do
      fail_on (check_imp (mutate_imp rng text))
    done;
    fail_on (check_imp (mutate_imp rng (mutate_imp rng text)))
  done

let suite =
  [
    Alcotest.test_case "readers: kept regressions" `Quick test_regressions;
    Alcotest.test_case "readers: a repeated B0 or B1 is a duplicate block" `Quick test_repeated_entry;
    Alcotest.test_case "readers: corpus as Bril and as CFG text" `Quick test_corpus;
    Alcotest.test_case "readers: mutated inputs match the former readers" `Quick test_mutations;
    Alcotest.test_case "miniimp ≡ former reader" `Quick test_imp_equiv;
    Alcotest.test_case "miniimp: mutated inputs match the former reader" `Quick test_imp_mutations;
  ]
