type t = {
  table : (Expr.t, int) Hashtbl.t;
  mutable exprs : Expr.t array;
  mutable size : int;
  (* var → indices of expressions reading it, for every variable at once:
     filled by one pass over the expressions, valid while
     [reading_cache_size] equals the pool size (-1: not filled). *)
  reading_cache : (string, int list) Hashtbl.t;
  mutable reading_cache_size : int;
  (* Guards the lazily-filled [reading_cache] only: analyses sharing a pool
     may query [reading] from several domains at once.  [add] still
     requires external ordering — pools are built single-domain, before any
     fan-out. *)
  reading_lock : Mutex.t;
}

let create ?(size = 16) () =
  let size = max 16 size in
  {
    table = Hashtbl.create size;
    exprs = Array.make size (Expr.Atom (Expr.Const 0));
    size = 0;
    reading_cache = Hashtbl.create 16;
    reading_cache_size = -1;
    reading_lock = Mutex.create ();
  }

let grow pool =
  if pool.size = Array.length pool.exprs then begin
    let bigger = Array.make (2 * Array.length pool.exprs) pool.exprs.(0) in
    Array.blit pool.exprs 0 bigger 0 pool.size;
    pool.exprs <- bigger
  end

let add pool e =
  if not (Expr.is_candidate e) then
    invalid_arg (Printf.sprintf "Expr_pool.add: %s is not a PRE candidate" (Expr.to_string e));
  let e = Expr.canonical e in
  match Hashtbl.find_opt pool.table e with
  | Some i -> i
  | None ->
    grow pool;
    let i = pool.size in
    pool.exprs.(i) <- e;
    pool.size <- i + 1;
    Hashtbl.add pool.table e i;
    (* Register the flipped orientation of commutative operators too:
       lookups then hit the table directly as written in the program, and
       [index]/[index_exn] never pay [Expr.canonical]'s node rebuild (one
       allocation per candidate instruction per request on the scan path).
       Expressions are shallow — operands are atoms — so the two
       orientations enumerate every equal-up-to-commutativity form. *)
    (match e with
    | Expr.Binary (op, a, b) when Expr.is_commutative op && a <> b ->
      Hashtbl.add pool.table (Expr.Binary (op, b, a)) i
    | Expr.Atom _ | Expr.Unary _ | Expr.Binary _ -> ());
    i

let index pool e = Hashtbl.find_opt pool.table e

(* Hot-path variant of [index]: no [Some] allocation per lookup (the
   local-predicate scan asks once per instruction).  Raises [Not_found]. *)
let index_exn pool e = Hashtbl.find pool.table e

let expr pool i =
  if i < 0 || i >= pool.size then invalid_arg "Expr_pool.expr: index out of range";
  pool.exprs.(i)

let size pool = pool.size

let iter f pool =
  for i = 0 to pool.size - 1 do
    f i pool.exprs.(i)
  done

let to_list pool =
  let acc = ref [] in
  for i = pool.size - 1 downto 0 do
    acc := (i, pool.exprs.(i)) :: !acc
  done;
  !acc

(* One pass over the expressions, from the last to the first, so each
   variable's list comes out ascending.  An expression reading the same
   variable twice ([a * a]) is listed once. *)
let fill_reading pool =
  let note i v =
    match Hashtbl.find pool.reading_cache v with
    | j :: _ as is -> if j <> i then Hashtbl.replace pool.reading_cache v (i :: is)
    | [] -> Hashtbl.replace pool.reading_cache v [ i ]
    | exception Not_found -> Hashtbl.add pool.reading_cache v [ i ]
  in
  for i = pool.size - 1 downto 0 do
    match pool.exprs.(i) with
    | Expr.Atom (Expr.Var v) | Expr.Unary (_, Expr.Var v) -> note i v
    | Expr.Binary (_, a, b) ->
      (match a with Expr.Var v -> note i v | Expr.Const _ -> ());
      (match b with Expr.Var v -> note i v | Expr.Const _ -> ())
    | Expr.Atom (Expr.Const _) | Expr.Unary (_, Expr.Const _) -> ()
  done

(* The body is uncurried into a plain function so the locked section needs
   no closures at all ([Fun.protect] allocates two per call): the
   exception arm below replays the role of [~finally], releasing the lock
   before re-raising (including injected chaos faults).  The cache is
   marked invalid before the fill and valid only after it, so a fault
   between the two leaves it to be rebuilt by the next call. *)
let reading_locked pool v =
  if pool.reading_cache_size <> pool.size then begin
    pool.reading_cache_size <- -1;
    Hashtbl.reset pool.reading_cache;
    Lcm_support.Fault.inject "pool.reading";
    fill_reading pool;
    pool.reading_cache_size <- pool.size
  end;
  match Hashtbl.find pool.reading_cache v with
  | is -> is
  | exception Not_found -> []

let reading pool v =
  Mutex.lock pool.reading_lock;
  match reading_locked pool v with
  | is ->
    Mutex.unlock pool.reading_lock;
    is
  | exception e ->
    Mutex.unlock pool.reading_lock;
    raise e
