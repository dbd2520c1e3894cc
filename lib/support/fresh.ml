type t = { prefix : string; mutable next : int }

(* A name spelled [seed] and then [k] underscores starts with [seed],
   [seed_], ... up to [k] underscores, so the prefix takes one underscore
   more than the longest such run over all names (none when no name
   starts with [seed]).  [run] is one name's share of that count, so a
   caller may keep it per group of names and combine the groups with
   [max]. *)
let run seed v =
  let n = String.length seed in
  if String.starts_with ~prefix:seed v then begin
    let k = ref n in
    while !k < String.length v && String.unsafe_get v !k = '_' do
      incr k
    done;
    !k - n + 1
  end
  else 0

let extend seed need = if need = 0 then seed else seed ^ String.make need '_'

let prefix ~existing seed = extend seed (List.fold_left (fun need v -> max need (run seed v)) 0 existing)

let create ~existing seed = { prefix = prefix ~existing seed; next = 0 }

let mint t =
  let name = Printf.sprintf "%s%d" t.prefix t.next in
  t.next <- t.next + 1;
  name
