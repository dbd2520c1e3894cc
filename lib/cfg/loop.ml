type loop = {
  header : Label.t;
  body : Label.Set.t;
  back_edges : (Label.t * Label.t) list;
}

type t = { ordered : loop list }

let natural_loop_body g header tails =
  (* Walk backwards from each tail, stopping at the header. *)
  let body = ref (Label.Set.singleton header) in
  let rec go l =
    if not (Label.Set.mem l !body) then begin
      body := Label.Set.add l !body;
      List.iter go (Cfg.predecessors g l)
    end
  in
  List.iter go tails;
  !body

let compute g =
  let dom = Dom.compute g in
  let order = Order.compute g in
  let backs =
    List.filter
      (fun (src, dst) -> Dom.dominates dom dst src)
      (Order.back_edges g order)
  in
  let by_header =
    List.fold_left
      (fun acc (src, dst) ->
        let existing = Option.value ~default:[] (Label.Map.find_opt dst acc) in
        Label.Map.add dst (src :: existing) acc)
      Label.Map.empty backs
  in
  let make header tails =
    {
      header;
      body = natural_loop_body g header tails;
      back_edges = List.map (fun tail -> (tail, header)) tails;
    }
  in
  let loops_map = Label.Map.mapi make by_header in
  let rpo_pos l = Option.value ~default:max_int (Order.rpo_index order l) in
  let ordered =
    List.sort
      (fun a b -> compare (rpo_pos a.header) (rpo_pos b.header))
      (List.map snd (Label.Map.bindings loops_map))
  in
  { ordered }

let loops t = t.ordered
let depth t l = List.length (List.filter (fun lp -> Label.Set.mem l lp.body) t.ordered)

let max_depth t =
  List.fold_left
    (fun acc lp -> max acc (Label.Set.fold (fun l m -> max m (depth t l)) lp.body 0))
    0 t.ordered

let entry_edges g loop =
  List.filter
    (fun (src, _) -> not (Label.Set.mem src loop.body))
    (List.map (fun p -> (p, loop.header)) (Cfg.predecessors g loop.header))

let insert_preheader g loop =
  (* Snapshot the outside predecessors before allocating the pre-header —
     the fresh block also targets the header and must not be redirected
     into itself. *)
  let outside = List.map fst (entry_edges g loop) in
  let preheader = Cfg.add_block g ~instrs:[] ~term:(Cfg.Goto loop.header) in
  List.iter
    (fun p ->
      let redirect l = if Label.equal l loop.header then preheader else l in
      match Cfg.term g p with
      | Cfg.Goto l -> Cfg.set_term g p (Cfg.Goto (redirect l))
      | Cfg.Branch (c, a, b) -> Cfg.set_term g p (Cfg.Branch (c, redirect a, redirect b))
      | Cfg.Halt -> assert false)
    outside;
  preheader
