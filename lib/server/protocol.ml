type error_code =
  | Bad_request
  | Parse_error
  | Oversized
  | Overloaded
  | Deadline_exceeded
  | Fuel_exhausted
  | Unknown_handle
  | Poisoned_request
  | Shutting_down
  | Unsupported_format
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Parse_error -> "parse_error"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Fuel_exhausted -> "fuel_exhausted"
  | Unknown_handle -> "unknown_handle"
  | Poisoned_request -> "poisoned_request"
  | Shutting_down -> "shutting_down"
  | Unsupported_format -> "unsupported_format"
  | Internal -> "internal"

type run_request = {
  program : string;
  format : string;
  func : string option;
  algorithm : string;
  simplify : bool;
  validate : bool;
  retain : bool;
}

type delta_edit = {
  d_block : string option;
  d_add : bool;
  d_instrs : string list option;
  d_term : string option;
}

type delta_request = {
  d_handle : string;
  d_edits : delta_edit list;
  d_edits_json : Json.t;
  d_validate : bool;
}

type op =
  | Run of run_request
  | Delta of delta_request
  | Stats
  | Profile
  | Ping
  | Sleep of float

type request = {
  id : Json.t;
  trace_id : string option;
  op : op;
  deadline_ms : float option;
}

(* ---- request parsing ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let opt_field j name conv =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v ->
    (match conv v with
    | Some x -> Some x
    | None -> bad "field %S has the wrong type" name)

let string_field j name =
  match opt_field j name Json.to_string_opt with
  | Some s -> s
  | None -> bad "missing field %S" name

let parse_format j program =
  match opt_field j "format" Json.to_string_opt with
  | Some f ->
    (* Validated against the frontend registry by the engine, which owns
       the typed [Unsupported_format] rejection — the protocol layer does
       not know which formats are registered. *)
    f
  | None ->
    (* Default: sniff.  Cfg_text documents always start with "cfg "; a
       JSON document (Bril) starts with '{'; anything else is MiniImp. *)
    if String.length program >= 4 && String.sub program 0 4 = "cfg " then "cfg"
    else begin
      let i = ref 0 in
      while
        !i < String.length program
        && match program.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr i
      done;
      if !i < String.length program && program.[!i] = '{' then "bril" else "miniimp"
    end

let parse_run j =
  let program = string_field j "program" in
  (* Every run is one sequential solve answered with [workers:1]; the
     [workers] field is accepted and type-checked so that clients which
     send it keep working. *)
  ignore (opt_field j "workers" Json.to_int_opt);
  {
    program;
    format = parse_format j program;
    func = opt_field j "function" Json.to_string_opt;
    algorithm = Option.value (opt_field j "algorithm" Json.to_string_opt) ~default:"lcm-edge";
    simplify = Option.value (opt_field j "simplify" Json.to_bool_opt) ~default:false;
    validate = Option.value (opt_field j "validate" Json.to_bool_opt) ~default:false;
    retain = Option.value (opt_field j "retain" Json.to_bool_opt) ~default:false;
  }

let parse_edit e =
    match e with
    | Json.Obj _ ->
      let d_block = opt_field e "block" Json.to_string_opt in
      let d_add = Option.value (opt_field e "add" Json.to_bool_opt) ~default:false in
      let d_instrs =
        match Json.member "instrs" e with
        | None | Some Json.Null -> None
        | Some (Json.List xs) ->
          Some
            (List.map
               (function
                 | Json.String s -> s
                 | _ -> bad "edit field \"instrs\" must be a list of strings")
               xs)
        | Some _ -> bad "edit field \"instrs\" must be a list of strings"
      in
      let d_term = opt_field e "term" Json.to_string_opt in
      (match (d_block, d_add) with
      | None, false -> bad "each edit needs \"block\" or \"add\":true"
      | Some _, true -> bad "an edit cannot both name a \"block\" and \"add\" one"
      | _ -> ());
      if d_add && d_term = None then bad "an added block needs a \"term\"";
      if d_instrs = None && d_term = None then bad "an edit must change \"instrs\" or \"term\"";
      { d_block; d_add; d_instrs; d_term }
    | _ -> bad "each edit must be a JSON object"

let parse_edits = function
  | Json.List items ->
    let edits = List.map parse_edit items in
    if edits = [] then bad "\"edits\" must be non-empty";
    edits
  | _ -> bad "field \"edits\" must be a list"

let delta_edits_of_json j = try Ok (parse_edits j) with Bad m -> Error m

let parse_delta j =
  let d_handle = string_field j "handle" in
  let d_edits_json =
    match Json.member "edits" j with
    | Some v -> v
    | None -> bad "missing field \"edits\""
  in
  {
    d_handle;
    d_edits = parse_edits d_edits_json;
    d_edits_json;
    d_validate = Option.value (opt_field j "validate" Json.to_bool_opt) ~default:false;
  }

let parse_request frame =
  match Json.parse frame with
  | exception Json.Parse_error m -> Error (Json.Null, None, Bad_request, "malformed frame: " ^ m)
  | Json.Obj _ as j ->
    let id = Option.value (Json.member "id" j) ~default:Json.Null in
    (* Recovered tolerantly (ignored when ill-typed) so even a rejected
       request's error response can still correlate with its trace. *)
    let trace_id = match Json.member "trace_id" j with Some (Json.String s) -> Some s | _ -> None in
    (try
       let trace_id =
         match opt_field j "trace_id" Json.to_string_opt with
         | Some "" -> bad "trace_id must be non-empty"
         | t -> t
       in
       let deadline_ms =
         match opt_field j "deadline_ms" Json.to_float_opt with
         | Some d when d < 0. -> bad "deadline_ms must be non-negative"
         | d -> d
       in
       let op =
         match Option.value (opt_field j "op" Json.to_string_opt) ~default:"run" with
         | "run" -> Run (parse_run j)
         | "delta" -> Delta (parse_delta j)
         | "stats" -> Stats
         | "profile" -> Profile
         | "ping" -> Ping
         | "sleep" ->
           (match opt_field j "duration_ms" Json.to_float_opt with
           | Some d when d >= 0. -> Sleep d
           | Some _ -> bad "duration_ms must be non-negative"
           | None -> bad "missing field \"duration_ms\"")
         | other -> bad "unknown op %S" other
       in
       Ok { id; trace_id; op; deadline_ms }
     with Bad m -> Error (id, trace_id, Bad_request, m))
  | _ -> Error (Json.Null, None, Bad_request, "frame is not a JSON object")

(* ---- responses ---- *)

type timing = {
  queue_ms : float;
  run_ms : float;
}

let counts_json (c : Lcm_eval.Metrics.static_counts) =
  Json.Obj
    [
      ("blocks", Json.Int c.Lcm_eval.Metrics.blocks);
      ("instrs", Json.Int c.Lcm_eval.Metrics.instrs);
      ("candidate_occurrences", Json.Int c.Lcm_eval.Metrics.candidate_occurrences);
      ("copies_and_moves", Json.Int c.Lcm_eval.Metrics.copies_and_moves);
    ]

let round_ms v = Float.round (v *. 1000.) /. 1000.

let timing_fields = function
  | None -> []
  | Some t ->
    [
      ( "timing",
        Json.Obj
          [ ("queue_ms", Json.Float (round_ms t.queue_ms)); ("run_ms", Json.Float (round_ms t.run_ms)) ]
      );
    ]

let tid_fields = function
  | None -> []
  | Some t -> [ ("trace_id", Json.String t) ]

let ok_transform ~opname ~id ?trace_id ~algorithm ~workers ~degraded ~validated ?(extra = [])
    ~program ~before ~after ~timing () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ tid_fields trace_id
       @ [
           ("status", Json.String "ok");
           ("op", Json.String opname);
           ("algorithm", Json.String algorithm);
           ("workers", Json.Int workers);
         ]
       @ (match degraded with Some tier -> [ ("degraded", Json.String tier) ] | None -> [])
       @ (if validated then [ ("validated", Json.Bool true) ] else [])
       @ [
           ("program", program);
           ("before", counts_json before);
           ("after", counts_json after);
         ]
       @ extra
       @ timing_fields timing))

(* The program as the graph's escaped pieces, written straight into the
   response ({!Lcm_cfg.Cfg.json}). *)
let program_json g =
  let len, write = Lcm_cfg.Cfg.json g in
  Json.Raw (len, write)

let ok_run_graph ~id ?trace_id ~algorithm ~workers ~degraded ~validated ?extra ~program ~before
    ~after ~timing () =
  ok_transform ~opname:"run" ~id ?trace_id ~algorithm ~workers ~degraded ~validated ?extra
    ~program:(program_json program) ~before ~after ~timing ()

let ok_delta_graph ~id ?trace_id ~algorithm ~validated ?extra ~program ~before ~after ~timing () =
  ok_transform ~opname:"delta" ~id ?trace_id ~algorithm ~workers:1 ~degraded:None ~validated ?extra
    ~program:(program_json program) ~before ~after ~timing ()

let ok_run ~id ?trace_id ~algorithm ~workers ~degraded ~validated ?extra ~program ~before ~after
    ~timing () =
  ok_transform ~opname:"run" ~id ?trace_id ~algorithm ~workers ~degraded ~validated ?extra
    ~program:(Json.String program) ~before ~after ~timing ()

let ok_delta ~id ?trace_id ~algorithm ~validated ?extra ~program ~before ~after ~timing () =
  ok_transform ~opname:"delta" ~id ?trace_id ~algorithm ~workers:1 ~degraded:None ~validated ?extra
    ~program:(Json.String program) ~before ~after ~timing ()

let ok_stats ~id ?trace_id ~stats () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ tid_fields trace_id
       @ [ ("status", Json.String "ok"); ("op", Json.String "stats"); ("stats", stats) ]))

let ok_profile ~id ?trace_id ~profile () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ tid_fields trace_id
       @ [ ("status", Json.String "ok"); ("op", Json.String "profile"); ("profile", profile) ]))

let ok_ping ~id ?trace_id () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ] @ tid_fields trace_id @ [ ("status", Json.String "ok"); ("op", Json.String "ping") ]))

let ok_sleep ~id ?trace_id ~slept_ms ~timing () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ tid_fields trace_id
       @ [ ("status", Json.String "ok"); ("op", Json.String "sleep"); ("slept_ms", Json.Float (round_ms slept_ms)) ]
       @ timing_fields timing))

let error ~id ?trace_id ~code ~message () =
  Json.to_string
    (Json.Obj
       ([ ("id", id) ]
       @ tid_fields trace_id
       @ [
           ("status", Json.String "error");
           ("code", Json.String (error_code_to_string code));
           ("message", Json.String message);
         ]))
