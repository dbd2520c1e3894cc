type issue = string

let full g =
  let issues = ref [] in
  let report fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let labels = Cfg.labels g in
  (match labels with
  | first :: _ when Label.equal first (Cfg.entry g) -> ()
  | _ -> report "entry block is not first in label order");
  List.iter
    (fun l ->
      List.iter
        (fun dst ->
          if not (Cfg.mem g dst) then report "%a targets dead label %a" Label.pp l Label.pp dst)
        (Cfg.successors g l);
      match Cfg.term g l with
      | Cfg.Halt ->
        if not (Label.equal l (Cfg.exit_label g)) then report "non-exit block %a halts" Label.pp l
      | Cfg.Goto _ | Cfg.Branch _ ->
        if Label.equal l (Cfg.exit_label g) then report "exit block does not halt")
    labels;
  if Cfg.predecessors g (Cfg.entry g) <> [] then report "entry block has predecessors";
  let order = Order.compute g in
  List.iter
    (fun l ->
      if (not (Order.is_reachable order l)) && not (Label.equal l (Cfg.exit_label g)) then
        report "block %a is unreachable" Label.pp l)
    labels;
  List.rev !issues

(* The check reads only shape, so a pass holds until the shape version
   moves: a marked graph (a copy of one included) answers in O(1). *)
let check g =
  if Cfg.validated g then []
  else
    match full g with
    | [] ->
      Cfg.mark_validated g;
      []
    | issues -> issues

let check_exn g =
  match check g with
  | [] -> ()
  | issues -> failwith (Printf.sprintf "Cfg validation failed: %s" (String.concat "; " issues))
