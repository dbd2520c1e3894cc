module Cfg = Lcm_cfg.Cfg
module Expr_pool = Lcm_ir.Expr_pool

(* [Cfg.temp_prefix] folds the blocks' memoised prefix runs, so only
   blocks never summarised before walk their variables.  The names are
   the prefix and an index; formatting them cost more than the rest of a
   delta's spec, and a rewrite memoised on a block keeps the array it was
   made with, so the arrays made for the last prefix are kept, one per
   length (a few pools are live at once: one per retained graph), and a
   request for a kept length gets the same array.  The cache is one
   immutable list swapped whole, so domains racing on it at worst make the
   same names twice. *)
let cache = Atomic.make ("", [])
let kept = 16

(* Names [prefix ^ i] for [i < n], from the cache. *)
let numbered prefix n =
  let p, arrays = Atomic.get cache in
  let arrays = if String.equal p prefix then arrays else [] in
  match List.find_opt (fun a -> Array.length a = n) arrays with
  | Some a -> a
  | None ->
    let longest = List.fold_left (fun acc a -> if Array.length a > Array.length acc then a else acc) [||] arrays in
    let a = Array.init n (fun i -> if i < Array.length longest then longest.(i) else prefix ^ string_of_int i) in
    Atomic.set cache (prefix, a :: List.filteri (fun i _ -> i < kept - 1) arrays);
    a

let names g pool = numbered (Cfg.temp_prefix g) (Expr_pool.size pool)

(* The strings are the cached ones, so only the array is new. *)
let ranked prefix rank =
  let ranks = Array.fold_left (fun m r -> max m (r + 1)) 0 rank in
  let by_rank = numbered prefix ranks in
  Array.map (fun r -> if r < 0 then "" else by_rank.(r)) rank
