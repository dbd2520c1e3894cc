type t = {
  table : (Expr.t, int) Hashtbl.t;
  (* An extended pool ({!extend}) finds the indices below [base_size] in
     the table of the pool it extends, never written through it, and keeps
     only the appended ones in [table]; a pool built by [add] alone has
     [base_size] 0. *)
  base : (Expr.t, int) Hashtbl.t;
  base_size : int;
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
  let table = Hashtbl.create size in
  {
    table;
    base = table;
    base_size = 0;
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

(* No [Some] per lookup: the local-predicate scan asks once per
   instruction.  Raises [Not_found]. *)
let index_exn pool e =
  match Hashtbl.find pool.table e with
  | i -> i
  | exception Not_found when pool.base_size > 0 ->
    let i = Hashtbl.find pool.base e in
    if i < pool.base_size then i else raise Not_found

let index pool e = match index_exn pool e with i -> Some i | exception Not_found -> None

let add pool e =
  if not (Expr.is_candidate e) then
    invalid_arg (Printf.sprintf "Expr_pool.add: %s is not a PRE candidate" (Expr.to_string e));
  let e = Expr.canonical e in
  match index_exn pool e with
  | i -> i
  | exception Not_found ->
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

(* [pool]'s indices are found in the table they were added to, which the
   extension reads and never writes; its own table and array hold only
   what it appends, so extending costs what is appended plus a copy of the
   expressions' array. *)
let extend pool es =
  let exprs = Array.make (max 16 (pool.size + List.length es)) pool.exprs.(0) in
  Array.blit pool.exprs 0 exprs 0 pool.size;
  let base, base_size, table =
    if pool.base_size = 0 then (pool.table, pool.size, Hashtbl.create 8)
    else (pool.base, pool.base_size, Hashtbl.copy pool.table)
  in
  let ext =
    {
      table;
      base;
      base_size;
      exprs;
      size = pool.size;
      reading_cache = Hashtbl.create 16;
      reading_cache_size = -1;
      reading_lock = Mutex.create ();
    }
  in
  List.iter (fun e -> ignore (add ext e)) es;
  ext

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
