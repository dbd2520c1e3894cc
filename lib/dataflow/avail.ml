module Bitvec = Lcm_support.Bitvec
module Arena = Lcm_support.Arena
module Rowtab = Lcm_support.Rowtab

type t = {
  avin : Lcm_cfg.Label.t -> Bitvec.t;
  avout : Lcm_cfg.Label.t -> Bitvec.t;
  avout_rows : Rowtab.t;
  avin_into : int array -> Lcm_cfg.Label.t -> unit;
  sweeps : int;
  visits : int;
}

(* AVOUT(b) = COMP(b) ∪ (AVIN(b) ∩ TRANSP(b)): GEN = COMP, KEEP = TRANSP. *)
let spec_of confluence ?scratch local =
  let nbits = Local.nbits local in
  {
    Solver.nbits;
    direction = Solver.Forward;
    confluence;
    boundary = Arena.alloc scratch nbits;
    gen = Local.comp_rows local;
    keep = Local.transp_rows local;
  }

let of_result (result : Solver.result) =
  {
    avin = result.Solver.block_in;
    avout = result.Solver.block_out;
    avout_rows = result.Solver.flow;
    avin_into = result.Solver.meet_into;
    sweeps = result.Solver.sweeps;
    visits = result.Solver.visits;
  }

(* Each public solve is one trace span, with the iteration counts as
   attributes (free when tracing is disabled). *)
let solve name f =
  Lcm_obs.Trace.span_attrs name (fun () ->
      let r = of_result (f ()) in
      (r, [ ("sweeps", string_of_int r.sweeps); ("visits", string_of_int r.visits) ]))

let compute ?scratch g local =
  solve "solve.avail" (fun () -> Solver.run ?scratch g (spec_of Solver.Inter ?scratch local))

let compute_partial ?scratch g local =
  solve "solve.avail.partial" (fun () -> Solver.run ?scratch g (spec_of Solver.Union ?scratch local))

(* Incremental variants for the serving [delta] tier: same spec as
   [compute], routed through the restartable solver entry points. *)
let compute_keep ?scratch g local =
  Lcm_obs.Trace.span_attrs "solve.avail" (fun () ->
      let result, saved = Solver.run_saved ?scratch g (spec_of Solver.Inter local) in
      let r = of_result result in
      ((r, saved), [ ("sweeps", string_of_int r.sweeps); ("visits", string_of_int r.visits) ]))

let compute_incr ?scratch g local ~prev ~dirty =
  Lcm_obs.Trace.span_attrs "solve.avail.incr" (fun () ->
      match Solver.restart ?scratch g (spec_of Solver.Inter local) ~prev ~dirty with
      | None -> (None, [ ("fallback", "full") ])
      | Some (result, saved) ->
        let region = string_of_int (Array.length result.Solver.changed) in
        (Some (of_result result, saved, result.Solver.changed), [ ("region", region); ("visits", string_of_int result.Solver.visits) ]))
