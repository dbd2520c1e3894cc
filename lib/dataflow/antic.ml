module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Rowtab = Lcm_support.Rowtab

type t = {
  antin : Lcm_cfg.Label.t -> Bitvec.t;
  antout : Lcm_cfg.Label.t -> Bitvec.t;
  antin_rows : Rowtab.t;
  antout_into : int array -> Lcm_cfg.Label.t -> unit;
  sweeps : int;
  visits : int;
}

(* ANTIN(b) = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b)): GEN = ANTLOC,
   KEEP = TRANSP. *)
let spec_of confluence ?scratch local =
  let nbits = Local.nbits local in
  {
    Solver.nbits;
    direction = Solver.Backward;
    confluence;
    boundary = Arena.alloc scratch nbits;
    gen = Local.antloc_rows local;
    keep = Local.transp_rows local;
  }

let of_result (result : Solver.result) =
  {
    antin = result.Solver.block_in;
    antout = result.Solver.block_out;
    antin_rows = result.Solver.flow;
    antout_into = result.Solver.meet_into;
    sweeps = result.Solver.sweeps;
    visits = result.Solver.visits;
  }

(* See [Avail.solve]. *)
let solve name f =
  Lcm_obs.Trace.span_attrs name (fun () ->
      let r = of_result (f ()) in
      (r, [ ("sweeps", string_of_int r.sweeps); ("visits", string_of_int r.visits) ]))

let compute ?scratch g local =
  solve "solve.antic" (fun () -> Solver.run ?scratch g (spec_of Solver.Inter ?scratch local))

let compute_partial ?scratch g local =
  solve "solve.antic.partial" (fun () -> Solver.run ?scratch g (spec_of Solver.Union ?scratch local))

(* Incremental variants; backward twin of [Avail.compute_keep/_incr]. *)
let compute_keep ?scratch g local =
  Lcm_obs.Trace.span_attrs "solve.antic" (fun () ->
      let result, saved = Solver.run_saved ?scratch g (spec_of Solver.Inter local) in
      let r = of_result result in
      ((r, saved), [ ("sweeps", string_of_int r.sweeps); ("visits", string_of_int r.visits) ]))

let compute_incr ?scratch g local ~prev ~dirty =
  Lcm_obs.Trace.span_attrs "solve.antic.incr" (fun () ->
      match Solver.restart ?scratch g (spec_of Solver.Inter local) ~prev ~dirty with
      | None -> (None, [ ("fallback", "full") ])
      | Some (result, saved) ->
        let region = string_of_int (Array.length result.Solver.changed) in
        (Some (of_result result, saved, result.Solver.changed), [ ("region", region); ("visits", string_of_int result.Solver.visits) ]))
