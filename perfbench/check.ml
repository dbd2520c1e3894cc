(* The output check, run after the timed phase.

   Two references: byte equality with the in-process transformation of
   the same canonical input (serving adds nothing), and behaviour under
   the interpreter on seeded inputs (the transformation is correct).  The
   interpreter runs also give the quality metrics: dynamic candidate
   evaluations, static instruction counts and temp lifetimes. *)

module Cfg = Lcm_cfg.Cfg
module Frontend = Lcm_frontend.Frontend
module Lcm_edge = Lcm_core.Lcm_edge
module Interp = Lcm_eval.Interp
module Metrics = Lcm_eval.Metrics
module Registry = Lcm_eval.Registry
module Prng = Lcm_support.Prng
module Json = Lcm_server.Json

let parse_exn fmt text =
  match Frontend.parse_one (Option.get (Frontend.find fmt)) text with
  | Ok g -> g
  | Error (Frontend.Parse e) -> failwith ("generated program does not parse: " ^ e.Frontend.message)
  | Error (Frontend.Pick m) -> failwith m

(* What the server must answer for this input graph. *)
let expected g = Cfg.to_string (fst (Lcm_edge.transform g))

(* The served program of an ok response frame. *)
let served_program frame =
  match Json.member "program" (Json.parse frame) with
  | Some (Json.String p) -> Some p
  | _ -> None

type quality = {
  mutable evals_before : int;
  mutable evals_after : int;
  mutable instrs_before : int;
  mutable instrs_after : int;
  mutable lifetime_sum : int;
  mutable temps : int;
  mutable programs : int;
}

let quality () =
  {
    evals_before = 0;
    evals_after = 0;
    instrs_before = 0;
    instrs_after = 0;
    lifetime_sum = 0;
    temps = 0;
    programs = 0;
  }

let envs_per_program = 3
let fuel = 5_000_000

(* Run [original] and [served] on seeded inputs; a difference in
   behaviour, or an input on which the original does not finish, is a
   failure.  Accumulates the quality sums. *)
let interp_check q ~seed ~original ~served =
  let rng = Prng.of_int (seed + Hashtbl.hash (Cfg.num_blocks original, Cfg.num_instrs original)) in
  let pool = Cfg.candidate_pool original and pool' = Cfg.candidate_pool served in
  let ok = ref true in
  for _ = 1 to envs_per_program do
    let env = List.map (fun v -> (v, Prng.int_in rng (-8) 8)) Gen.inputs in
    let o = Interp.run ~fuel ~pool ~env original in
    let o' = Interp.run ~fuel ~pool:pool' ~env served in
    if not (o.Interp.terminated && Interp.same_behaviour o o') then ok := false
    else begin
      q.evals_before <- q.evals_before + Interp.total_evals o;
      q.evals_after <- q.evals_after + Interp.total_evals o'
    end
  done;
  q.instrs_before <- q.instrs_before + Cfg.num_instrs original;
  q.instrs_after <- q.instrs_after + Cfg.num_instrs served;
  let temps = Registry.new_temps ~original ~transformed:served in
  q.lifetime_sum <- q.lifetime_sum + Metrics.temp_lifetime served ~temps;
  q.temps <- q.temps + List.length temps;
  q.programs <- q.programs + 1;
  !ok

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let dyn_evals_ratio q = ratio q.evals_after q.evals_before
let static_instrs_ratio q = ratio q.instrs_after q.instrs_before
(* Per inserted temp rather than per function: a function's sum follows
   how many temps it needs, the mean per temp follows where they live. *)
let temp_lifetime q = ratio q.lifetime_sum q.temps
