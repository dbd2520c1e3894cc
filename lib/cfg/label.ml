type t = int

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf l = Format.fprintf ppf "B%d" l
let to_string l = "B" ^ string_of_int l

(* Digit by digit, with no closure: the CFG printer writes several labels
   per block, and [string_of_int] would allocate a string for each. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_to_buffer buf l =
  Buffer.add_char buf 'B';
  if l >= 0 then add_digits buf l else Buffer.add_string buf (string_of_int l)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
