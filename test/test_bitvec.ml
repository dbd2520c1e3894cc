(* Unit and property tests for the bit-vector substrate. *)

module Bitvec = Lcm_support.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_empty () =
  let v = Bitvec.create 100 in
  check_int "length" 100 (Bitvec.length v);
  check "empty" true (Bitvec.is_empty v);
  check_int "count" 0 (Bitvec.count v);
  for i = 0 to 99 do
    check "bit clear" false (Bitvec.get v i)
  done

let test_create_full () =
  let v = Bitvec.create_full 70 in
  check_int "count" 70 (Bitvec.count v);
  for i = 0 to 69 do
    check "bit set" true (Bitvec.get v i)
  done

let test_set_get () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 64 true;
  Bitvec.set v 129 true;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 63" true (Bitvec.get v 63);
  check "bit 64" true (Bitvec.get v 64);
  check "bit 129" true (Bitvec.get v 129);
  check "bit 1" false (Bitvec.get v 1);
  check_int "count" 4 (Bitvec.count v);
  Bitvec.set v 63 false;
  check "bit 63 cleared" false (Bitvec.get v 63);
  check_int "count after clear" 3 (Bitvec.count v)

let test_out_of_range () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec.get: index -1 out of [0,10)") (fun () ->
      ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bitvec.get: index 10 out of [0,10)") (fun () ->
      ignore (Bitvec.get v 10))

let test_zero_length () =
  let v = Bitvec.create 0 in
  check "empty" true (Bitvec.is_empty v);
  check "equal to full" true (Bitvec.equal v (Bitvec.create_full 0))

let test_union_inter_diff () =
  let a = Bitvec.of_list 10 [ 1; 3; 5 ] in
  let b = Bitvec.of_list 10 [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5 ] (Bitvec.to_list (Bitvec.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitvec.to_list (Bitvec.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 5 ] (Bitvec.to_list (Bitvec.diff a b))

let test_into_change_reporting () =
  let a = Bitvec.of_list 10 [ 1; 3 ] in
  check "no change" false (Bitvec.union_into ~into:a (Bitvec.of_list 10 [ 1 ]));
  check "change" true (Bitvec.union_into ~into:a (Bitvec.of_list 10 [ 2 ]));
  check "inter no change" false (Bitvec.inter_into ~into:a (Bitvec.of_list 10 [ 1; 2; 3 ]));
  check "inter change" true (Bitvec.inter_into ~into:a (Bitvec.of_list 10 [ 1 ]))

let test_complement () =
  let a = Bitvec.of_list 65 [ 0; 64 ] in
  let c = Bitvec.complement a in
  check_int "count" 63 (Bitvec.count c);
  check "bit 0" false (Bitvec.get c 0);
  check "bit 1" true (Bitvec.get c 1);
  check "bit 64" false (Bitvec.get c 64);
  (* Complement twice is identity. *)
  check "involution" true (Bitvec.equal a (Bitvec.complement c))

let test_subset () =
  let a = Bitvec.of_list 20 [ 2; 4 ] in
  let b = Bitvec.of_list 20 [ 2; 4; 6 ] in
  check "a ⊆ b" true (Bitvec.subset a b);
  check "b ⊄ a" false (Bitvec.subset b a);
  check "refl" true (Bitvec.subset a a)

let test_blit () =
  let a = Bitvec.of_list 10 [ 1 ] and b = Bitvec.of_list 10 [ 2 ] in
  check "changed" true (Bitvec.blit ~src:b ~dst:a);
  check "equal after" true (Bitvec.equal a b);
  check "no change" false (Bitvec.blit ~src:b ~dst:a)

let test_fold_iter () =
  let a = Bitvec.of_list 200 [ 0; 63; 64; 126; 199 ] in
  check_int "fold" 5 (Bitvec.fold_true (fun _ acc -> acc + 1) a 0);
  let seen = ref [] in
  Bitvec.iter_true (fun i -> seen := i :: !seen) a;
  Alcotest.(check (list int)) "iter ascending" [ 0; 63; 64; 126; 199 ] (List.rev !seen)

(* Property tests: the vectors model finite sets of ints. *)
let gen_set n = QCheck2.Gen.(list_size (0 -- 30) (0 -- (n - 1)))

let prop_roundtrip =
  QCheck2.Test.make ~name:"of_list/to_list is sort_uniq" ~count:200 (gen_set 97) (fun is ->
      Bitvec.to_list (Bitvec.of_list 97 is) = List.sort_uniq compare is)

let prop_union_commutes =
  QCheck2.Test.make ~name:"union commutes" ~count:200
    QCheck2.Gen.(pair (gen_set 97) (gen_set 97))
    (fun (xs, ys) ->
      let a = Bitvec.of_list 97 xs and b = Bitvec.of_list 97 ys in
      Bitvec.equal (Bitvec.union a b) (Bitvec.union b a))

let prop_de_morgan =
  QCheck2.Test.make ~name:"De Morgan: ¬(a ∪ b) = ¬a ∩ ¬b" ~count:200
    QCheck2.Gen.(pair (gen_set 130) (gen_set 130))
    (fun (xs, ys) ->
      let a = Bitvec.of_list 130 xs and b = Bitvec.of_list 130 ys in
      Bitvec.equal (Bitvec.complement (Bitvec.union a b)) (Bitvec.inter (Bitvec.complement a) (Bitvec.complement b)))

let prop_count =
  QCheck2.Test.make ~name:"count = |sort_uniq|" ~count:200 (gen_set 64) (fun is ->
      Bitvec.count (Bitvec.of_list 64 is) = List.length (List.sort_uniq compare is))

(* The word-skipping iter_true must visit exactly the indices a per-bit scan
   would, in the same ascending order — checked at widths straddling the
   word size (62/63/64/65 on a 63-bit int) and under qcheck. *)
let naive_true_indices v =
  let acc = ref [] in
  for i = Bitvec.length v - 1 downto 0 do
    if Bitvec.get v i then acc := i :: !acc
  done;
  !acc

let iter_true_indices v =
  let acc = ref [] in
  Bitvec.iter_true (fun i -> acc := i :: !acc) v;
  List.rev !acc

let test_iter_true_word_boundaries () =
  List.iter
    (fun len ->
      (* Edge patterns: empty, full, only boundary bits. *)
      let patterns =
        [
          Bitvec.create len;
          Bitvec.create_full len;
          Bitvec.of_list len (List.filter (fun i -> i < len) [ 0; 61; 62; 63; 64 ]);
          Bitvec.of_list len (if len > 0 then [ len - 1 ] else []);
        ]
      in
      List.iter
        (fun v ->
          Alcotest.(check (list int))
            (Printf.sprintf "iter_true len=%d" len)
            (naive_true_indices v) (iter_true_indices v))
        patterns)
    [ 0; 1; 62; 63; 64; 65; 126; 127; 128 ]

let prop_iter_true =
  QCheck2.Test.make ~name:"iter_true = per-bit scan" ~count:200 (gen_set 129) (fun is ->
      let v = Bitvec.of_list 129 is in
      iter_true_indices v = naive_true_indices v)

let suite =
  [
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "create full" `Quick test_create_full;
    Alcotest.test_case "set/get across word boundaries" `Quick test_set_get;
    Alcotest.test_case "out of range raises" `Quick test_out_of_range;
    Alcotest.test_case "zero length" `Quick test_zero_length;
    Alcotest.test_case "union/inter/diff" `Quick test_union_inter_diff;
    Alcotest.test_case "in-place ops report changes" `Quick test_into_change_reporting;
    Alcotest.test_case "complement respects width" `Quick test_complement;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "blit" `Quick test_blit;
    Alcotest.test_case "fold/iter ascending" `Quick test_fold_iter;
    Alcotest.test_case "iter_true word-skipping vs bit loop" `Quick test_iter_true_word_boundaries;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_iter_true;
    QCheck_alcotest.to_alcotest prop_union_commutes;
    QCheck_alcotest.to_alcotest prop_de_morgan;
    QCheck_alcotest.to_alcotest prop_count;
  ]
