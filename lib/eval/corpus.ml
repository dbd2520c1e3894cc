(* The "compiler server" workload: a whole suite of functions optimized in
   one call, mapped over a domain pool.  Functions are independent — each
   job owns its graph, its expression pool, and its transformed copy — so
   jobs scale across domains while each job is one sequential solve.

   Determinism: reports come back in job order whatever the pool schedules,
   and each report carries an MD5 digest of the printed transformed graph,
   so a driver can assert that parallel and sequential runs produced the
   same code. *)

module Pool = Lcm_support.Pool
module Prng = Lcm_support.Prng
module Cfg = Lcm_cfg.Cfg
module Gencfg = Gencfg
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform

type job = {
  name : string;
  graph : Cfg.t;
}

type report = {
  job : string;
  blocks : int;
  edges : int;
  exprs : int;
  insertions : int;
  deletions : int;
  sweeps : int;
  visits : int;
  digest : string;  (** MD5 of the printed transformed graph *)
}

let generate ?(seed = 1905) ?(dup_rate = 0.) counts =
  let jobs =
    List.concat_map
      (fun (num_blocks, copies) ->
        List.init copies (fun i ->
            let rng = Prng.of_int (seed + (num_blocks * 7919) + i) in
            {
              name = Printf.sprintf "g%d_%d" num_blocks i;
              graph =
                Gencfg.random_cfg ~params:{ Gencfg.default_cfg_params with num_blocks } rng;
            }))
      counts
  in
  if dup_rate <= 0. then jobs
  else begin
    (* Duplicate-rate knob: each job after the first is, with probability
       [dup_rate], replaced by a verbatim repeat of an earlier one (the
       graph value is shared — printed text, and therefore content digest,
       identical).  Models the repeated functions of a real build corpus;
       a content-addressed cache should serve these without solving. *)
    let rng = Prng.of_int (seed lxor 0x00d5_ca7e) in
    let permille = int_of_float (Float.min 1000. (dup_rate *. 1000.)) in
    let arr = Array.of_list jobs in
    Array.iteri
      (fun i j ->
        if i > 0 && Prng.chance rng ~num:permille ~den:1000 then begin
          let src = arr.(Prng.int_in rng 0 (i - 1)) in
          arr.(i) <- { name = j.name ^ "_dup"; graph = src.graph }
        end)
      arr;
    Array.to_list arr
  end

let total_blocks jobs = List.fold_left (fun acc j -> acc + Cfg.num_blocks j.graph) 0 jobs

(* ---- ingesting real programs ---- *)

type ingest = {
  jobs : job list;
  duplicates : int;
  errors : (string * string) list;
}

let ingest_dir ?format dir =
  let module Frontend = Lcm_frontend.Frontend in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then None
           else
             match format with
             | Some fe ->
               if List.exists (fun ext -> Filename.check_suffix f ext) fe.Frontend.extensions then
                 Some (f, path, fe)
               else None
             | None -> Option.map (fun fe -> (f, path, fe)) (Frontend.of_extension f))
  in
  let seen = Hashtbl.create 64 in
  let jobs = ref [] and duplicates = ref 0 and errors = ref [] in
  List.iter
    (fun (f, path, fe) ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      match fe.Frontend.parse text with
      | Error e -> errors := (f, e.Frontend.message) :: !errors
      | Ok funcs ->
        List.iter
          (fun (fname, g) ->
            (* Dedup on the canonical digest: the same function ingested
               from two files (or two formats) is one job — mirroring the
               shard router's content addressing. *)
            let d = Cfg.digest g in
            if Hashtbl.mem seen d then incr duplicates
            else begin
              Hashtbl.replace seen d ();
              let name = if List.length funcs = 1 then f else Printf.sprintf "%s:%s" f fname in
              jobs := { name; graph = g } :: !jobs
            end)
          funcs)
    files;
  { jobs = List.rev !jobs; duplicates = !duplicates; errors = List.rev !errors }

let process_one job =
  let a = Lcm_edge.analyze job.graph in
  let transformed, r = Transform.apply job.graph (Lcm_edge.spec job.graph a) in
  {
    job = job.name;
    blocks = Cfg.num_blocks job.graph;
    edges = List.length (Cfg.edges job.graph);
    exprs = Lcm_ir.Expr_pool.size a.Lcm_edge.pool;
    insertions = r.Transform.num_edge_insertions;
    deletions = r.Transform.num_deletions;
    sweeps = a.Lcm_edge.sweeps;
    visits = a.Lcm_edge.visits;
    digest = Digest.to_hex (Digest.string (Cfg.to_string transformed));
  }

let process ?workers jobs =
  match workers with
  | Some pool when Pool.size pool > 1 ->
    let jobs = Array.of_list jobs in
    let reports = Array.make (Array.length jobs) None in
    (* One task per job: graphs differ wildly in size, so per-job tasks let
       the queue balance them; each task touches only its own slot. *)
    Pool.run pool
      (List.init (Array.length jobs) (fun i () -> reports.(i) <- Some (process_one jobs.(i))));
    Array.to_list (Array.map Option.get reports)
  | Some _ | None -> List.map process_one jobs

let digests reports = List.map (fun r -> r.digest) reports
