module Cfg = Lcm_cfg.Cfg
module Cfg_text = Lcm_cfg.Cfg_text
module Lower = Lcm_cfg.Lower
module Parser = Lcm_ir.Parser
module Lexer = Lcm_ir.Lexer

type error = Fdef.error = {
  message : string;
  where : string option;
}

type t = Fdef.t = {
  name : string;
  description : string;
  extensions : string list;
  multi : bool;
  route_canonical : bool;
  parse : string -> ((string * Cfg.t) list, error) result;
  print : Cfg.t -> string;
}

(* ---- the built-in frontends ---- *)

let miniimp =
  {
    name = "miniimp";
    description = "structured MiniImp source (the paper's running language)";
    extensions = [ ".imp" ];
    multi = true;
    (* Lowering renumbers and desugars: content-addressing miniimp on the
       canonical graph would be sound, but parsing is not a cheap
       normalization, so the router keys on the raw source instead. *)
    route_canonical = false;
    parse =
      (fun text ->
        match Lower.parse_and_lower text with
        | funcs -> Ok funcs
        | exception Parser.Parse_error (m, line, col) ->
          Fdef.err ~where:(Printf.sprintf "%d:%d" line col) "miniimp parse error at %d:%d: %s" line col m
        | exception Lexer.Lex_error (m, line, col) ->
          Fdef.err ~where:(Printf.sprintf "%d:%d" line col) "miniimp lex error at %d:%d: %s" line col m);
    print = Cfg.to_string;
  }

let cfg =
  {
    name = "cfg";
    description = "textual control-flow graphs, exactly what the engine prints";
    extensions = [ ".cfg" ];
    multi = false;
    route_canonical = true;
    parse =
      (fun text ->
        match Cfg_text.parse text with
        | g -> Ok [ (Cfg.name g, g) ]
        | exception Cfg_text.Parse_error (m, line) ->
          Fdef.err ~where:(Printf.sprintf "line %d" line) "cfg parse error at line %d: %s" line m);
    print = Cfg.to_string;
  }

let bril =
  {
    name = "bril";
    description = "Bril JSON programs (https://capra.cs.cornell.edu/bril/)";
    extensions = [ ".bril"; ".json" ];
    multi = true;
    route_canonical = true;
    parse =
      (fun text ->
        match Bril.parse_program text with
        | funcs -> Ok funcs
        | exception Bril.Err (m, path) -> Fdef.err ~where:path "bril parse error at %s: %s" path m);
    print = Bril.print;
  }

(* ---- registry ---- *)

let all = [ miniimp; cfg; bril ]
let find name = List.find_opt (fun f -> f.name = name) all
let names = List.map (fun f -> f.name) all
let default = miniimp

let of_extension path =
  let suffix f = List.exists (fun ext -> Filename.check_suffix path ext) f.extensions in
  List.find_opt suffix all

(* ---- function selection ----
   One uniform policy over [parse]'s function list, shared by the engine
   and the CLI so wire and command line agree on every message. *)

type pick_error =
  | Parse of error  (** the program text did not parse *)
  | Pick of string  (** parsed fine, but function selection failed *)

let parse_one fe ?func text =
  match fe.parse text with
  | Error e -> Error (Parse e)
  | Ok funcs ->
    (match (func, funcs) with
    | None, [ (_, g) ] -> Ok g
    | None, [] -> Error (Parse { message = "program defines no function"; where = None })
    | None, _ ->
      Error
        (Pick
           (Printf.sprintf "program defines %d functions; pick one with \"function\" (%s)"
              (List.length funcs)
              (String.concat ", " (List.map fst funcs))))
    | Some f, _ when not fe.multi ->
      (* Formats denoting one graph ignore selection, as the engine always
         has: a [func] field on a cfg request is not an error. *)
      ignore f;
      (match funcs with
      | [ (_, g) ] -> Ok g
      | _ -> Error (Pick (Printf.sprintf "format %S does not support function selection" fe.name)))
    | Some f, _ ->
      (match List.assoc_opt f funcs with
      | Some g -> Ok g
      | None -> Error (Pick (Printf.sprintf "no function %S in program" f))))
