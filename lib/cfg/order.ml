(* Orders are a view of the graph's cached adjacency snapshot: [compute] is
   O(1) amortized per shape version, so callers may freely re-request the
   order instead of threading it through. *)

type t = Cfg.adjacency

let compute g = Cfg.adjacency g

let postorder (t : t) = Array.to_list t.Cfg.adj_post
let reverse_postorder (t : t) = Array.to_list t.Cfg.adj_rpo

let rpo_index (t : t) l =
  if l < 0 || l >= t.Cfg.adj_bound then None
  else
    let i = t.Cfg.adj_rpo_pos.(l) in
    if i < 0 then None else Some i

let is_reachable (t : t) l = l >= 0 && l < t.Cfg.adj_bound && t.Cfg.adj_rpo_pos.(l) >= 0

let back_edges g (t : t) =
  let disc l = if l >= 0 && l < t.Cfg.adj_bound then t.Cfg.adj_disc.(l) else 0 in
  let fin l = if l >= 0 && l < t.Cfg.adj_bound then t.Cfg.adj_fin.(l) else 0 in
  List.filter
    (fun (src, dst) ->
      let ds = disc src and dd = disc dst in
      (* dst is an ancestor of src iff dst's DFS interval encloses src's. *)
      ds > 0 && dd > 0 && dd <= ds && fin dst >= fin src)
    (Cfg.edges g)
