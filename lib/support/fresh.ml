type t = { prefix : string; mutable next : int }

(* A name spelled [seed] and then [k] underscores starts with [seed],
   [seed_], ... up to [k] underscores, so the prefix takes one underscore
   more than the longest such run over all names (none when no name
   starts with [seed]).  The names are visited once, allocating nothing. *)
let prefix_iter iter seed =
  let n = String.length seed in
  let need = ref 0 in
  iter (fun v ->
      if String.starts_with ~prefix:seed v then begin
        let k = ref n in
        while !k < String.length v && String.unsafe_get v !k = '_' do
          incr k
        done;
        if !k - n + 1 > !need then need := !k - n + 1
      end);
  if !need = 0 then seed else seed ^ String.make !need '_'

let prefix ~existing seed = prefix_iter (fun f -> List.iter f existing) seed

let create ~existing seed = { prefix = prefix ~existing seed; next = 0 }

let mint t =
  let name = Printf.sprintf "%s%d" t.prefix t.next in
  t.next <- t.next + 1;
  name

let prefix_of t = t.prefix
