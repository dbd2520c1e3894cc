(* The crash-durability layer: the journal record codec (CRC framing,
   torn-tail detection), the per-handle write-ahead journal (compaction,
   stray-tmp cleanup, quarantine), and the engine's recovery path — a
   handle rebuilt from its journal must be indistinguishable from one
   that never crashed: the same id, and bit-identical responses to the
   same subsequent deltas. *)

module Json = Lcm_server.Json
module Journal = Lcm_support.Journal
module Hjournal = Lcm_server.Hjournal
module Stats = Lcm_server.Stats
module Engine = Lcm_server.Engine
module Protocol = Lcm_server.Protocol
module Handles = Lcm_server.Handles

let now = Unix.gettimeofday
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- record codec ---- *)

let codec_crc32_known () =
  (* The standard CRC-32 (IEEE) check value. *)
  checki "crc32(123456789)" 0xCBF43926 (Journal.crc32 "123456789");
  checki "crc32(empty)" 0 (Journal.crc32 "");
  (* Running continuation must equal the one-shot checksum. *)
  checki "streamed = one-shot" (Journal.crc32 "hello world")
    (Journal.crc32 ~crc:(Journal.crc32 "hello ") "world")

let codec_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 '\xff'; "{\"op\":\"delta\"}"; "a\nb\x00c" ] in
  let s = String.concat "" (List.map Journal.encode_record payloads) in
  let got, consumed, status = Journal.decode s in
  Alcotest.(check (list string)) "payloads" payloads got;
  checki "consumed everything" (String.length s) consumed;
  checkb "clean" true (status = `Clean)

let codec_torn_tail () =
  let payloads = [ "first"; "second"; "third" ] in
  let records = List.map Journal.encode_record payloads in
  let s = String.concat "" records in
  let r1 = String.length (List.nth records 0) in
  let r2 = r1 + String.length (List.nth records 1) in
  (* Cut at every byte inside the third record: the first two must
     always decode, the scan must always stop at the clean boundary. *)
  for cut = r2 + 1 to String.length s - 1 do
    let got, consumed, status = Journal.decode (String.sub s 0 cut) in
    Alcotest.(check (list string))
      (Printf.sprintf "prefix at cut %d" cut)
      [ "first"; "second" ] got;
    checki "clean boundary" r2 consumed;
    checkb "torn" true (status = `Torn)
  done

let codec_corrupt_payload () =
  let s =
    Journal.encode_record "keep" ^ Journal.encode_record "damaged" ^ Journal.encode_record "after"
  in
  (* Flip one payload byte of the middle record: its CRC check fails, so
     decoding stops after the first record even though the third is
     intact — a half-written rewrite must not resurrect later bytes. *)
  let b = Bytes.of_string s in
  let pos = String.length (Journal.encode_record "keep") + 9 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let got, _, status = Journal.decode (Bytes.to_string b) in
  Alcotest.(check (list string)) "only the clean prefix" [ "keep" ] got;
  checkb "torn" true (status = `Torn)

let codec_bad_tag () =
  let s = Journal.encode_record "ok" ^ "Zgarbage-that-is-not-a-record" in
  let got, consumed, status = Journal.decode s in
  Alcotest.(check (list string)) "stops at the bad tag" [ "ok" ] got;
  checki "boundary" (String.length (Journal.encode_record "ok")) consumed;
  checkb "torn" true (status = `Torn)

let prop_codec_roundtrip =
  let gen =
    QCheck2.Gen.(small_list (string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 200)))
  in
  QCheck2.Test.make ~name:"codec: encode/decode roundtrip on random payloads" ~count:200 gen
    (fun payloads ->
      let s = String.concat "" (List.map Journal.encode_record payloads) in
      let got, consumed, status = Journal.decode s in
      got = payloads && consumed = String.length s && status = `Clean)

let prop_codec_truncation =
  (* Any truncation of a valid stream decodes to a prefix of the
     payloads — never garbage, never an exception. *)
  let gen = QCheck2.Gen.(pair (list_size (int_range 1 8) (string_size (int_bound 64))) (int_bound 10_000)) in
  QCheck2.Test.make ~name:"codec: any truncation yields a clean prefix" ~count:300 gen
    (fun (payloads, cut_seed) ->
      let s = String.concat "" (List.map Journal.encode_record payloads) in
      let cut = cut_seed mod (String.length s + 1) in
      let got, consumed, _ = Journal.decode (String.sub s 0 cut) in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      is_prefix got payloads && consumed <= cut)

(* ---- per-handle journal files ---- *)

let mk_journal ?(compact_every = 1000) dir =
  match Hjournal.create ~dir ~fsync:false ~compact_every () with
  | Ok t -> t
  | Error m -> Alcotest.failf "Hjournal.create: %s" m

let edits_json i =
  Json.List
    [
      Json.Obj
        [
          ("block", Json.String "B2");
          ("instrs", Json.List [ Json.String (Printf.sprintf "x := a + b" ); Json.String (Printf.sprintf "t%d := a + b" i) ]);
        ];
    ]

let hj_roundtrip () =
  let dir = fresh_dir "lcm-hj" in
  let t = mk_journal dir in
  let record h =
    match Hjournal.record_base t ~handle:h ~algorithm:"lcm-edge" ~simplify:false ~program:("prog-" ^ h) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "record_base: %s" m
  in
  record "h0-2";
  record "h0-1";
  (for i = 1 to 3 do
     match
       Hjournal.record_patch t ~handle:"h0-1" ~edits:(edits_json i) ~algorithm:"lcm-edge"
         ~simplify:false ~program:(fun () -> "unused-snapshot")
     with
     | Ok `Appended -> ()
     | Ok `Compacted -> Alcotest.fail "unexpected compaction"
     | Error m -> Alcotest.failf "record_patch: %s" m
   done);
  let recovered, torn, quarantined = Hjournal.recover t in
  checki "no torn files" 0 torn;
  checki "no quarantined files" 0 quarantined;
  checki "both handles" 2 (List.length recovered);
  (* Sorted by mint sequence, not directory order. *)
  checks "seq order" "h0-1" (List.nth recovered 0).Hjournal.r_handle;
  checks "seq order" "h0-2" (List.nth recovered 1).Hjournal.r_handle;
  let r1 = List.nth recovered 0 in
  checks "base survives" "prog-h0-1" r1.Hjournal.r_program;
  checki "all patches, in order" 3 (List.length r1.Hjournal.r_patches);
  checkb "patch payloads intact" true (List.nth r1.Hjournal.r_patches 2 = edits_json 3);
  checkb "nothing truncated" true (not r1.Hjournal.r_truncated)

let hj_compaction () =
  let dir = fresh_dir "lcm-hjc" in
  let t = mk_journal ~compact_every:2 dir in
  (match Hjournal.record_base t ~handle:"h0-1" ~algorithm:"lcm-edge" ~simplify:true ~program:"v0" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "record_base: %s" m);
  let patch i program =
    Hjournal.record_patch t ~handle:"h0-1" ~edits:(edits_json i) ~algorithm:"lcm-edge"
      ~simplify:true ~program:(fun () -> program)
  in
  checkb "first append" true (patch 1 "v1" = Ok `Appended);
  checkb "threshold compacts" true (patch 2 "v2" = Ok `Compacted);
  let recovered, _, _ = Hjournal.recover t in
  let r = List.hd recovered in
  checks "snapshot is the post-patch program" "v2" r.Hjournal.r_program;
  checkb "simplify preserved" true r.Hjournal.r_simplify;
  checki "patch log truncated" 0 (List.length r.Hjournal.r_patches);
  (* The log keeps accepting patches after a compaction. *)
  checkb "append after compaction" true (patch 3 "v3" = Ok `Appended);
  let recovered, _, _ = Hjournal.recover t in
  let r = List.hd recovered in
  checks "snapshot base" "v2" r.Hjournal.r_program;
  checki "one patch since snapshot" 1 (List.length r.Hjournal.r_patches)

let hj_mid_compaction_crash () =
  (* A crash between writing the compaction tmp and the rename leaves
     both files; recovery must delete the stray tmp and use the intact
     journal — patch log included. *)
  let dir = fresh_dir "lcm-hjt" in
  let t = mk_journal dir in
  (match Hjournal.record_base t ~handle:"h0-1" ~algorithm:"lcm-edge" ~simplify:false ~program:"v0" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "record_base: %s" m);
  ignore
    (Hjournal.record_patch t ~handle:"h0-1" ~edits:(edits_json 1) ~algorithm:"lcm-edge"
       ~simplify:false ~program:(fun () -> "v1"));
  let tmp = Hjournal.path t ~handle:"h0-1" ^ ".tmp" in
  write_file tmp "half-written compaction snapshot";
  let recovered, torn, quarantined = Hjournal.recover t in
  checkb "stray tmp removed" true (not (Sys.file_exists tmp));
  checki "nothing quarantined" 0 quarantined;
  checki "nothing torn" 0 torn;
  let r = List.hd recovered in
  checks "journal wins" "v0" r.Hjournal.r_program;
  checki "patch log intact" 1 (List.length r.Hjournal.r_patches)

let hj_torn_tail_truncated () =
  let dir = fresh_dir "lcm-hjtt" in
  let t = mk_journal dir in
  (match Hjournal.record_base t ~handle:"h0-1" ~algorithm:"lcm-edge" ~simplify:false ~program:"v0" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "record_base: %s" m);
  ignore
    (Hjournal.record_patch t ~handle:"h0-1" ~edits:(edits_json 1) ~algorithm:"lcm-edge"
       ~simplify:false ~program:(fun () -> "v1"));
  let path = Hjournal.path t ~handle:"h0-1" in
  let clean = read_file path in
  (* kill -9 mid-append: half a record past the clean end. *)
  write_file path (clean ^ String.sub (Journal.encode_record "unfinished patch") 0 7);
  let recovered, torn, _ = Hjournal.recover t in
  checki "one torn file" 1 torn;
  let r = List.hd recovered in
  checkb "flagged" true r.Hjournal.r_truncated;
  checki "clean prefix replayed" 1 (List.length r.Hjournal.r_patches);
  checki "file truncated back to the clean boundary" (String.length clean)
    (String.length (read_file path));
  (* Second recovery is quiet: the damage is gone. *)
  let _, torn, _ = Hjournal.recover t in
  checki "no torn files on re-scan" 0 torn

let hj_quarantine () =
  let dir = fresh_dir "lcm-hjq" in
  let t = mk_journal dir in
  (match Hjournal.record_base t ~handle:"h0-1" ~algorithm:"lcm-edge" ~simplify:false ~program:"v0" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "record_base: %s" m);
  (* Not a journal at all: bad magic. *)
  write_file (Filename.concat dir "h0-2.journal") "this is not a journal";
  (* A journal whose first record is not a base record. *)
  write_file (Filename.concat dir "h0-3.journal") (Journal.file_magic ^ Journal.encode_record "{}");
  let recovered, _, quarantined = Hjournal.recover t in
  checki "two quarantined" 2 quarantined;
  checki "the good one survives" 1 (List.length recovered);
  checkb "bad file set aside" true (Sys.file_exists (Filename.concat dir "h0-2.journal.corrupt"));
  checkb "bad file no longer scanned" true
    (not (Sys.file_exists (Filename.concat dir "h0-2.journal")));
  (* Re-recovery does not trip over the quarantined files again. *)
  let recovered, _, quarantined = Hjournal.recover t in
  checki "quiet re-scan" 0 quarantined;
  checki "still one handle" 1 (List.length recovered)

let hj_drop () =
  let dir = fresh_dir "lcm-hjd" in
  let t = mk_journal dir in
  (match Hjournal.record_base t ~handle:"h0-1" ~algorithm:"lcm-edge" ~simplify:false ~program:"v0" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "record_base: %s" m);
  Hjournal.drop t ~handle:"h0-1";
  let recovered, _, _ = Hjournal.recover t in
  checki "dropped journal stays gone" 0 (List.length recovered)

(* ---- engine recovery ---- *)

let diamond_text =
  "cfg d (entry B0, exit B1)\n\
   B0:\n\
  \  if a then B2 else B3\n\
   B1:\n\
  \  halt\n\
   B2:\n\
  \  x := a + b\n\
  \  goto B4\n\
   B3:\n\
  \  goto B4\n\
   B4:\n\
  \  y := a + b\n\
  \  goto B1\n"

let engine_cfg ?handle_capacity ?compact_every dir =
  let stats = Stats.create () in
  let journal =
    match Hjournal.create ~dir ~fsync:false ?compact_every () with
    | Ok t -> t
    | Error m -> Alcotest.failf "Hjournal.create: %s" m
  in
  Engine.default_config ?handle_capacity ~journal ~worker_id:0 stats

let exec cfg frame =
  match Protocol.parse_request frame with
  | Error (_, _, code, m) -> Alcotest.failf "bad test frame (%s): %s" (Protocol.error_code_to_string code) m
  | Ok req ->
    let t = now () in
    Json.parse (Engine.execute cfg ~now ~arrival:t ~deadline:None req)

let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

let retain_frame ?(validate = false) program =
  Printf.sprintf "{\"id\":1,\"op\":\"run\",\"retain\":true,\"validate\":%b,\"program\":%s}" validate
    (Json.to_string (Json.String program))

let delta_frame ?(validate = false) ~handle instrs =
  Printf.sprintf
    "{\"id\":2,\"op\":\"delta\",\"handle\":%S,\"validate\":%b,\"edits\":[{\"block\":\"B2\",\"instrs\":[%s]}]}"
    handle validate
    (String.concat "," (List.map (fun i -> Json.to_string (Json.String i)) instrs))

let expect_ok what resp =
  (match str_field "status" resp with
  | Some "error" ->
    Alcotest.failf "%s failed: %s (%s)" what
      (Option.value ~default:"?" (str_field "code" resp))
      (Option.value ~default:"" (str_field "message" resp))
  | _ -> ());
  resp

let retain cfg program =
  let resp = expect_ok "retain" (exec cfg (retain_frame program)) in
  match str_field "handle" resp with
  | Some h -> h
  | None -> Alcotest.fail "retain response carries no handle"

let delta ?validate cfg ~handle instrs = expect_ok "delta" (exec cfg (delta_frame ?validate ~handle instrs))

(* The central durability property: replaying the journal rebuilds the
   exact handle state.  Exercised as qcheck over random delta histories —
   a live engine applies a history, a second engine recovers from the
   journal alone, and an identical probe delta must then produce
   bit-identical programs on both. *)
let random_history rng =
  let n = 1 + Random.State.int rng 9 in
  List.init n (fun i ->
      let exprs = [| "a + b"; "a - b"; "b + c"; "a + c"; "c - a" |] in
      let e = exprs.(Random.State.int rng (Array.length exprs)) in
      [ Printf.sprintf "x := %s" e; Printf.sprintf "t%d := a + b" i ])

let prop_recovery_bit_identical =
  QCheck2.Test.make ~name:"recovery: replay rebuilds bit-identical handle state" ~count:15
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let dir = fresh_dir "lcm-rec" in
      let live = engine_cfg dir in
      let h = retain live diamond_text in
      List.iter (fun instrs -> ignore (delta live ~handle:h instrs)) (random_history rng);
      (* The crash: a second engine sees only the journal directory. *)
      let reborn = engine_cfg dir in
      Engine.recover reborn;
      let probe = [ "x := b + c"; "probe := a + b" ] in
      let a = delta live ~handle:h probe in
      let b = delta reborn ~handle:h probe in
      (match (str_field "program" a, str_field "program" b) with
      | Some pa, Some pb when String.equal pa pb -> ()
      | Some pa, Some pb -> QCheck2.Test.fail_reportf "programs differ:\n%s\n----\n%s" pa pb
      | _ -> QCheck2.Test.fail_report "probe delta failed");
      (* The first post-recovery response — and only the first — must
         announce the rebuild. *)
      (match Json.member "recovered" b with
      | Some (Json.Bool true) -> ()
      | _ -> QCheck2.Test.fail_report "first post-recovery delta lacks recovered:true");
      (match Json.member "recovered" a with
      | None -> ()
      | Some _ -> QCheck2.Test.fail_report "live engine must not claim recovery");
      let b2 = delta reborn ~handle:h probe in
      (match Json.member "recovered" b2 with
      | None -> ()
      | Some _ -> QCheck2.Test.fail_report "recovered:true must clear after the first response");
      true)

let prop_recovery_torn_tail =
  (* kill -9 mid-append: the torn last record is cut off, and the
     rebuilt state must equal a live engine that never saw that delta. *)
  QCheck2.Test.make ~name:"recovery: torn tail rebuilds the acknowledged prefix" ~count:10
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed + 31 |] in
      let dir_a = fresh_dir "lcm-ta" and dir_b = fresh_dir "lcm-tb" in
      let full = engine_cfg dir_a in
      let reference = engine_cfg dir_b in
      let ha = retain full diamond_text in
      let hb = retain reference diamond_text in
      if not (String.equal ha hb) then QCheck2.Test.fail_report "handle minting diverged";
      let history = random_history rng in
      let n = List.length history in
      List.iteri
        (fun i instrs ->
          ignore (delta full ~handle:ha instrs);
          (* The reference engine never sees the last delta — the one
             whose journal record we are about to tear. *)
          if i < n - 1 then ignore (delta reference ~handle:hb instrs))
        history;
      let path = Filename.concat dir_a (ha ^ ".journal") in
      let bytes = read_file path in
      (* Tear the final record: cut 1..8 bytes off the end. *)
      let cut = 1 + Random.State.int rng 8 in
      write_file path (String.sub bytes 0 (String.length bytes - cut));
      let reborn = engine_cfg dir_a in
      Engine.recover reborn;
      let probe = [ "x := c - a"; "probe := a + b" ] in
      let a = delta reborn ~handle:ha probe in
      let b = delta reference ~handle:hb probe in
      match (str_field "program" a, str_field "program" b) with
      | Some pa, Some pb when String.equal pa pb -> true
      | Some pa, Some pb -> QCheck2.Test.fail_reportf "programs differ:\n%s\n----\n%s" pa pb
      | _ -> QCheck2.Test.fail_report "probe delta failed")

(* A patch log whose every edit changes the candidate pool — an
   expression added, one dropped with the body that held its only
   occurrence, a dropped one added back, new expressions written to
   names the graph never mentions — restarts incrementally live and on
   replay: neither engine ticks [delta.full_total], the live deltas pass
   the engine's check against a from-scratch solve ([validate:true]), and
   the recovered handle's next delta answers what the uninterrupted
   engine answers. *)
let recovery_pool_changes () =
  let dir = fresh_dir "lcm-pool" in
  let live = engine_cfg dir in
  let full cfg = Stats.counter_value cfg.Engine.stats "delta.full_total" in
  let h = retain live diamond_text in
  let history =
    [
      [ "x := a + b"; "y := a * 7" ];
      [ "x := b - a" ];
      [ "x := a * 7"; "z := a * b" ];
      [ "x := a + b" ];
      [ "z := b - a"; "w := a * b" ];
    ]
  in
  List.iter (fun instrs -> ignore (delta ~validate:true live ~handle:h instrs)) history;
  checki "live deltas restarted incrementally" 0 (full live);
  let reborn = engine_cfg dir in
  Engine.recover reborn;
  checki "replayed deltas restarted incrementally" 0 (full reborn);
  let probe = [ "x := a * b"; "probe := a * 9" ] in
  let a = delta live ~handle:h probe and b = delta reborn ~handle:h probe in
  let solve j = Option.map Json.to_string (Json.member "solve" j) in
  checks "same program" (Option.get (str_field "program" a)) (Option.get (str_field "program" b));
  Alcotest.(check (option string)) "same solve" (solve a) (solve b);
  checki "probe restarted incrementally on both" 0 (full live + full reborn)

let recovery_with_compaction () =
  (* A history long enough to compact twice must still rebuild exactly. *)
  let dir = fresh_dir "lcm-rc" in
  let live = engine_cfg ~compact_every:3 dir in
  let h = retain live diamond_text in
  for i = 1 to 8 do
    ignore (delta live ~handle:h [ "x := a + b"; Printf.sprintf "t%d := b + c" i ])
  done;
  let reborn = engine_cfg ~compact_every:3 dir in
  Engine.recover reborn;
  let probe = [ "x := a - b" ] in
  let a = delta live ~handle:h probe in
  let b = delta reborn ~handle:h probe in
  checks "compacted journal rebuilds identically"
    (Option.get (str_field "program" a))
    (Option.get (str_field "program" b));
  (* Compaction must actually have bounded the log: the journal file
     holds the snapshot plus at most compact_every patch records. *)
  let payloads, _, _ =
    let s = read_file (Filename.concat dir (h ^ ".journal")) in
    Journal.decode ~pos:(String.length Journal.file_magic) s
  in
  checkb "patch log bounded by compaction" true (List.length payloads <= 4)

let recovery_respects_eviction () =
  (* An evicted handle's journal is dropped: recovery must not resurrect
     a handle the client was already told is gone. *)
  let dir = fresh_dir "lcm-ev" in
  let live = engine_cfg ~handle_capacity:2 dir in
  let h1 = retain live diamond_text in
  let _h2 = retain live diamond_text in
  let _h3 = retain live diamond_text in
  (* capacity 2: h1 was evicted by h3's registration *)
  let reborn = engine_cfg ~handle_capacity:2 dir in
  Engine.recover reborn;
  let resp = exec reborn (delta_frame ~handle:h1 [ "x := a - b" ]) in
  checks "evicted handle stays unknown" "unknown_handle"
    (Option.value ~default:"(ok)" (str_field "code" resp))

let recovery_seq_monotonic () =
  (* New handles minted after a recovery must not collide with rebuilt
     ids. *)
  let dir = fresh_dir "lcm-seq" in
  let live = engine_cfg dir in
  let h1 = retain live diamond_text in
  let h2 = retain live diamond_text in
  let reborn = engine_cfg dir in
  Engine.recover reborn;
  let h3 = retain reborn diamond_text in
  checkb "fresh id after recovery" true (not (List.mem h3 [ h1; h2 ]))

let suite =
  [
    Alcotest.test_case "codec: crc32 known answers" `Quick codec_crc32_known;
    Alcotest.test_case "codec: record roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "codec: torn tail at every byte" `Quick codec_torn_tail;
    Alcotest.test_case "codec: corrupt payload ends the scan" `Quick codec_corrupt_payload;
    Alcotest.test_case "codec: bad tag ends the scan" `Quick codec_bad_tag;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_truncation;
    Alcotest.test_case "hjournal: base+patches roundtrip" `Quick hj_roundtrip;
    Alcotest.test_case "hjournal: compaction snapshots and truncates" `Quick hj_compaction;
    Alcotest.test_case "hjournal: mid-compaction crash leaves the journal" `Quick
      hj_mid_compaction_crash;
    Alcotest.test_case "hjournal: torn tail truncated on recovery" `Quick hj_torn_tail_truncated;
    Alcotest.test_case "hjournal: unreplayable files quarantined" `Quick hj_quarantine;
    Alcotest.test_case "hjournal: dropped journals stay gone" `Quick hj_drop;
    QCheck_alcotest.to_alcotest prop_recovery_bit_identical;
    QCheck_alcotest.to_alcotest prop_recovery_torn_tail;
    Alcotest.test_case "recovery: survives compaction" `Quick recovery_with_compaction;
    Alcotest.test_case "recovery: pool-changing patches replay incrementally" `Quick recovery_pool_changes;
    Alcotest.test_case "recovery: respects eviction" `Quick recovery_respects_eviction;
    Alcotest.test_case "recovery: handle ids stay unique" `Quick recovery_seq_monotonic;
  ]
