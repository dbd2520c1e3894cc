module Expr = Lcm_ir.Expr

(* Open addressing over [slots] (0: empty, else number + 1), keyed by the
   name's bytes, so a reader can intern a name straight from a span of
   its source text: a hit allocates nothing.  A name of at most 7 bytes
   is keyed by its bytes packed into an int ([packed], with its length),
   so hashing it and comparing it are a few integer operations; a longer
   name is hashed with FNV-1a and compared byte by byte.  At most half
   the slots are ever full.  Constants get dense numbers of their own in
   [values], through an int-keyed table of the same shape. *)
type t = {
  mutable names : string array;
  mutable packed : int array;  (* the packed key of each name, -1 when longer than 7 bytes *)
  (* The one [Var name] and [Atom (Var name)] node per name, made on
     first use: a table that only numbers (a graph numbering itself)
     never needs them. *)
  mutable operands : Expr.operand array;
  mutable atoms : Expr.t array;
  mutable size : int;
  mutable slots : int array;
  mutable values : int array;  (* constant code -> value *)
  mutable const_operands : Expr.operand array;  (* the one [Const n] node per constant *)
  mutable const_atoms : Expr.t array;
  mutable nconsts : int;
  mutable const_slots : int array;
}

let create ?(size = 16) () =
  let size = max 16 size in
  let rec pow2 c = if c >= 2 * size then c else pow2 (2 * c) in
  {
    names = Array.make size "";
    packed = Array.make size 0;
    operands = [||];
    atoms = [||];
    size = 0;
    slots = Array.make (pow2 32) 0;
    values = Array.make 8 0;
    const_operands = Array.make 8 (Expr.Const 0);
    const_atoms = Array.make 8 (Expr.Atom (Expr.Const 0));
    nconsts = 0;
    const_slots = Array.make 16 0;
  }

(* The bytes of [s] at [pos, pos + len) and the length, packed: distinct
   short names get distinct keys. *)
let rec pack s i stop k = if i = stop then k else pack s (i + 1) stop ((k lsl 8) lor Char.code (String.unsafe_get s i))

let key s pos len = if len > 7 then -1 else (pack s pos (pos + len) 0 lsl 3) lor len

let rec fnv s i stop h = if i = stop then h else fnv s (i + 1) stop ((h lxor Char.code (String.unsafe_get s i)) * 0x01000193)

let spread k = ((k * 0x4F1BBCDCBFA53E0B) lsr 17) land max_int
let hash s pos len k = if k >= 0 then spread k else spread (fnv s pos (pos + len) 0xcbf29ce4)

let rec same s pos name j len =
  j = len || (String.unsafe_get s (pos + j) = String.unsafe_get name j && same s pos name (j + 1) len)

(* The slot holding the name spelt by [s] at [pos, pos + len) (packed key
   [k]), or the empty slot where it would go. *)
let rec probe t s pos len k i =
  let v = Array.unsafe_get t.slots i - 1 in
  if v < 0 then i
  else if
    if k >= 0 then Array.unsafe_get t.packed v = k
    else
      let name = Array.unsafe_get t.names v in
      String.length name = len && same s pos name 0 len
  then i
  else probe t s pos len k ((i + 1) land (Array.length t.slots - 1))

let slot t s pos len k = probe t s pos len k (hash s pos len k land (Array.length t.slots - 1))

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for v = 0 to t.size - 1 do
    let name = t.names.(v) in
    let rec put i = if slots.(i) = 0 then slots.(i) <- v + 1 else put ((i + 1) land mask) in
    put (hash name 0 (String.length name) t.packed.(v) land mask)
  done;
  t.slots <- slots

let add t i k name =
  let v = t.size in
  if v = Array.length t.names then begin
    let names = Array.make (2 * v) "" and packed = Array.make (2 * v) 0 in
    Array.blit t.names 0 names 0 v;
    Array.blit t.packed 0 packed 0 v;
    t.names <- names;
    t.packed <- packed
  end;
  t.names.(v) <- name;
  t.packed.(v) <- k;
  t.slots.(i) <- v + 1;
  t.size <- v + 1;
  if 2 * t.size > Array.length t.slots then grow_slots t;
  v

let intern_sub t s pos len =
  let k = key s pos len in
  let i = slot t s pos len k in
  let v = Array.unsafe_get t.slots i in
  if v > 0 then v - 1 else add t i k (String.sub s pos len)

let intern t name =
  let len = String.length name in
  let k = key name 0 len in
  let i = slot t name 0 len k in
  let v = Array.unsafe_get t.slots i in
  if v > 0 then v - 1 else add t i k name

let find t name =
  let len = String.length name in
  t.slots.(slot t name 0 len (key name 0 len)) - 1
let size t = t.size

let name t v =
  if v < 0 || v >= t.size then invalid_arg "Vars.name: unknown variable";
  t.names.(v)

(* ---- constants ---- *)

let rec const_probe t n i =
  let k = Array.unsafe_get t.const_slots i in
  if k = 0 || Array.unsafe_get t.values (k - 1) = n then i
  else const_probe t n ((i + 1) land (Array.length t.const_slots - 1))

let const_slot t n = const_probe t n (Hashtbl.hash n land (Array.length t.const_slots - 1))

let const t n =
  let i = const_slot t n in
  let k = t.const_slots.(i) in
  if k > 0 then k - 1
  else begin
    let c = t.nconsts in
    if c = Array.length t.values then begin
      let values = Array.make (2 * c) 0 and operands = Array.make (2 * c) (Expr.Const 0) in
      let atoms = Array.make (2 * c) (Expr.Atom (Expr.Const 0)) in
      Array.blit t.values 0 values 0 c;
      Array.blit t.const_operands 0 operands 0 c;
      Array.blit t.const_atoms 0 atoms 0 c;
      t.values <- values;
      t.const_operands <- operands;
      t.const_atoms <- atoms
    end;
    let operand = Expr.Const n in
    t.values.(c) <- n;
    t.const_operands.(c) <- operand;
    t.const_atoms.(c) <- Expr.Atom operand;
    t.const_slots.(i) <- c + 1;
    t.nconsts <- c + 1;
    if 2 * t.nconsts > Array.length t.const_slots then begin
      let slots = Array.make (2 * Array.length t.const_slots) 0 in
      t.const_slots <- slots;
      for c = 0 to t.nconsts - 1 do
        slots.(const_slot t t.values.(c)) <- c + 1
      done
    end;
    c
  end

(* ---- operand codes ---- *)

let var_code v = 2 * v
let const_code t n = (2 * const t n) + 1

let no_operand = Expr.Const 0
let no_atom = Expr.Atom no_operand

(* [a] with room for every variable, filled with [none]. *)
let room t a none =
  let a' = Array.make (Array.length t.names) none in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let var_operand t i =
  if i >= Array.length t.operands then t.operands <- room t t.operands no_operand;
  let o = t.operands.(i) in
  if o != no_operand then o
  else begin
    let o = Expr.Var t.names.(i) in
    t.operands.(i) <- o;
    o
  end

let code_operand t code =
  let i = code lsr 1 in
  if code land 1 = 0 then begin
    if code < 0 || i >= t.size then invalid_arg "Vars.code_operand: unknown variable";
    var_operand t i
  end
  else begin
    if i >= t.nconsts then invalid_arg "Vars.code_operand: unknown constant";
    t.const_operands.(i)
  end

let code_atom t code =
  let i = code lsr 1 in
  if code land 1 = 0 then begin
    if code < 0 || i >= t.size then invalid_arg "Vars.code_atom: unknown variable";
    if i >= Array.length t.atoms then t.atoms <- room t t.atoms no_atom;
    let a = t.atoms.(i) in
    if a != no_atom then a
    else begin
      let a = Expr.Atom (var_operand t i) in
      t.atoms.(i) <- a;
      a
    end
  end
  else begin
    if i >= t.nconsts then invalid_arg "Vars.code_atom: unknown constant";
    t.const_atoms.(i)
  end

(* The code of an operand, interning it. *)
let operand_code t = function
  | Expr.Var v -> 2 * intern t v
  | Expr.Const n -> const_code t n
