module Trace = Lcm_obs.Trace
module Cfg = Lcm_cfg.Cfg

type ctx = { scratch : Lcm_support.Arena.t option }

let default_ctx = { scratch = None }

type report = {
  sweeps : int;
  visits : int;
  spec : Transform.spec option;
  notes : (string * string) list;
}

let report ?(sweeps = 0) ?(visits = 0) ?spec ?(notes = []) () = { sweeps; visits; spec; notes }

type t = {
  name : string;
  run : ctx -> Cfg.t -> Cfg.t * report;
}

let v name run = { name; run }
let of_fn name f = v name (fun _ g -> (f g, report ()))

let count_attrs r =
  (if r.sweeps > 0 then [ ("sweeps", string_of_int r.sweeps) ] else [])
  @ (if r.visits > 0 then [ ("visits", string_of_int r.visits) ] else [])
  @ r.notes

let run ctx p g =
  Trace.span_attrs ("pass." ^ p.name) (fun () ->
      let g', r = p.run ctx g in
      ((g', r), count_attrs r))

let simplify =
  of_fn "simplify" (fun g ->
      let h = Cfg.copy g in
      Cfg.merge_straight_pairs h;
      Cfg.remove_unreachable h;
      h)

module Pipeline = struct
  type pass = t

  type t = {
    name : string;
    passes : pass list;
  }

  let v name passes = { name; passes }
  let append t passes = { t with passes = t.passes @ passes }

  let run_pass = run

  let run ctx pl g =
    Trace.span ("pipeline." ^ pl.name) (fun () ->
        let g, reports =
          List.fold_left
            (fun (g, reports) p ->
              let g', r = run_pass ctx p g in
              (g', (p.name, r) :: reports))
            (g, []) pl.passes
        in
        (g, List.rev reports))

  let run_graph ctx pl g = fst (run ctx pl g)
end
