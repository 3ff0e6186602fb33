open Dapper_util

let check = Alcotest.check

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("a", Json.Int 42L);
        ("b", Json.List [ Json.String "x\"y\n"; Json.Bool true; Json.Null ]);
        ("c", Json.Obj [ ("nested", Json.Float 1.5) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []) ]
  in
  let round = Json_read.of_string (Json.to_string doc) in
  check Alcotest.bool "roundtrip" true (round = doc)

let test_json_parse_basics () =
  check Alcotest.bool "int" true (Json_read.of_string "42" = Json.Int 42L);
  check Alcotest.bool "neg" true (Json_read.of_string "-7" = Json.Int (-7L));
  check Alcotest.bool "float" true (Json_read.of_string "2.5" = Json.Float 2.5);
  check Alcotest.bool "string esc" true (Json_read.of_string {|"a\tb"|} = Json.String "a\tb");
  check Alcotest.bool "unicode" true (Json_read.of_string {|"A"|} = Json.String "A")

let test_json_errors () =
  let fails s =
    match Json_read.of_string s with
    | exception Json_read.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "trailing" true (fails "1 2");
  check Alcotest.bool "unterminated" true (fails "\"abc");
  check Alcotest.bool "bad obj" true (fails "{\"a\" 1}")

let test_json_members () =
  let doc = Json_read.of_string {|{"x": 1, "y": [2, 3]}|} in
  check Alcotest.bool "member x" true (Json_read.member_opt "x" doc = Some (Json.Int 1L));
  check Alcotest.int "list len" 2
    (List.length (Json_read.to_list (Option.get (Json_read.member_opt "y" doc))));
  check Alcotest.bool "missing" true (Json_read.member_opt "z" doc = None)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  let xs = List.init 32 (fun _ -> Rng.next a) in
  let ys = List.init 32 (fun _ -> Rng.next b) in
  check Alcotest.bool "same stream" true (xs = ys)

let test_rng_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17);
    let f = Rng.float r in
    check Alcotest.bool "float range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_permutation () =
  let r = Rng.create 99L in
  let p = Array.init 50 Fun.id in
  Rng.shuffle r p;
  check Alcotest.bool "shuffle moved something" true (p <> Array.init 50 Fun.id);
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.bool "is permutation" true (sorted = Array.init 50 (fun i -> i))

let test_bytebuf_roundtrip () =
  let b = Bytebuf.create 16 in
  Bytebuf.add_u8 b 0xAB;
  Bytebuf.add_u16 b 0x1234;
  Bytebuf.add_u32 b 0xDEADBEEF;
  Bytebuf.add_i64 b (-42L);
  let s = Bytebuf.contents b in
  check Alcotest.int "u8" 0xAB (Bytebuf.get_u8 s 0);
  check Alcotest.int "u16" 0x1234 (Bytebuf.get_u16 s 1);
  check Alcotest.int "u32" 0xDEADBEEF (Bytebuf.get_u32 s 3);
  check Alcotest.bool "i64" true (Int64.equal (-42L) (Bytebuf.get_i64 s 7))

let test_fnv64 () =
  (* empty string digests to the FNV-1a offset basis *)
  check Alcotest.bool "empty = offset basis" true
    (Int64.equal (Bytebuf.fnv64 "") 0xcbf29ce484222325L);
  check Alcotest.bool "different data, different digest" true
    (not (Int64.equal (Bytebuf.fnv64 "abc") (Bytebuf.fnv64 "abd")));
  (* folding is composition: hashing "ab" then "cd" = hashing "abcd" *)
  check Alcotest.bool "fold composes" true
    (Int64.equal
       (Bytebuf.fnv64_fold (Bytebuf.fnv64 "ab") "cd")
       (Bytebuf.fnv64 "abcd"));
  (* the published FNV-1a-64 test vectors *)
  List.iter
    (fun (s, want) ->
      check Alcotest.string (Printf.sprintf "fnv64 %S" s) want
        (Printf.sprintf "%016Lx" (Bytebuf.fnv64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ]

(* FNV-1a by its definition, one byte at a time, kept apart from the
   library's kernel so the two can be compared. *)
let fnv64_reference h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

(* 0-300 bytes over the full byte range, so the high-bit bytes and
   every tail length past a word boundary are covered. *)
let fnv_string =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size ~gen:char (int_range 0 300))

let qcheck_fnv64_reference =
  QCheck.Test.make ~count:300
    ~name:"fnv64 = per-byte reference, folds at every split, sees every byte"
    fnv_string (fun s ->
      let n = String.length s in
      let whole = Bytebuf.fnv64 s in
      Int64.equal whole (fnv64_reference 0xcbf29ce484222325L s)
      && List.for_all
           (fun i ->
             Int64.equal whole
               (Bytebuf.fnv64_fold (Bytebuf.fnv64 (String.sub s 0 i))
                  (String.sub s i (n - i))))
           (List.init (n + 1) Fun.id)
      && List.for_all
           (fun i ->
             let b = Bytes.of_string s in
             Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + (i mod 255))));
             not (Int64.equal whole (Bytebuf.fnv64 (Bytes.to_string b))))
           (List.init n Fun.id))

(* [fnv64_sub] hashes a window of a string in place: the same digest
   as copying the window out, from any starting digest. *)
let qcheck_fnv64_sub =
  QCheck.Test.make ~count:300 ~name:"fnv64_sub = fnv64_fold over String.sub"
    (QCheck.make
       ~print:(fun (h, s, off, len) -> Printf.sprintf "%Lx %S %d %d" h s off len)
       QCheck.Gen.(
         let* h = ui64 in
         let* s = string_size ~gen:char (int_range 0 300) in
         let n = String.length s in
         let* off = int_range 0 n in
         let+ len = int_range 0 (n - off) in
         (h, s, off, len)))
    (fun (h, s, off, len) ->
      Int64.equal (Bytebuf.fnv64_sub h s off len)
        (Bytebuf.fnv64_fold h (String.sub s off len)))

(* The transport digest by its definition: one host-order word per
   step, then the tail one byte at a time, kept apart from the library's
   kernel so the two can be compared. *)
let word64_reference s =
  let prime = 0x100000001b3L in
  let n = String.length s in
  let h = ref 0xcbf29ce484222325L in
  for k = 0 to (n / 8) - 1 do
    h := Int64.mul (Int64.logxor !h (String.get_int64_ne s (8 * k))) prime
  done;
  for i = n / 8 * 8 to n - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) prime
  done;
  !h

(* 0-300 bytes, for every tail length past a word boundary, or one or
   two whole pages, the parts a page table is sent as. *)
let word64_string =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
    QCheck.Gen.(
      let* n = frequency [ (3, int_range 0 300); (1, map (( * ) 4096) (int_range 1 2)) ] in
      string_size ~gen:char (return n))

let qcheck_word64 =
  QCheck.Test.make ~count:200
    ~name:"word64 = per-word reference, folds at aligned splits, sees every byte"
    word64_string (fun s ->
      let n = String.length s in
      let whole = Bytebuf.word64 [ s ] in
      Int64.equal whole (word64_reference s)
      && List.for_all
           (fun i ->
             Int64.equal whole
               (Bytebuf.word64 [ String.sub s 0 i; String.sub s i (n - i) ]))
           (List.init ((n / 8) + 1) (fun k -> 8 * k))
      && List.for_all
           (fun i ->
             let b = Bytes.of_string s in
             Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + (i mod 255))));
             not (Int64.equal whole (Bytebuf.word64 [ Bytes.to_string b ])))
           (List.init n Fun.id))

let test_fnv64_sub_bounds () =
  let s = "0123456789" in
  check Alcotest.bool "whole string" true
    (Int64.equal (Bytebuf.fnv64_sub 0xcbf29ce484222325L s 0 10) (Bytebuf.fnv64 s));
  check Alcotest.bool "empty window at the end" true
    (Int64.equal (Bytebuf.fnv64_sub 7L s 10 0) 7L);
  List.iter
    (fun (off, len) ->
      check Alcotest.bool
        (Printf.sprintf "off %d len %d rejected" off len)
        true
        (match Bytebuf.fnv64_sub 0L s off len with
         | exception Invalid_argument _ -> true
         | _ -> false))
    [ (-1, 1); (0, -1); (0, 11); (10, 1); (11, 0); (5, 6); (1, max_int);
      (max_int, 1); (min_int, 0) ]

(* ----- unified error classification -----

   [error_examples] carries one value per constructor and [retriable]
   is an exhaustive match, so this test plus the compiler pins the
   transient/structural classification of every error: adding a
   constructor breaks the library match AND this expectation. *)

let error_examples =
  Dapper_error.
    [ Pause_budget_exhausted;
      Not_at_equivalence_point (1, 0x400000L);
      Process_exited;
      Dump_failed "example";
      Unwind_failed "example";
      Recode_failed "example";
      Shuffle_failed "example";
      Layout_incompatible "example";
      Active_function "example";
      Transfer_timeout "example";
      Checksum_mismatch "example";
      Restore_failed "example";
      Source_lost "example";
      Commit_failed "example";
      Verify_failed "example";
      Deadline_exceeded (Transfer, 12.5) ]

let test_error_classification () =
  let expect : Dapper_error.t -> bool = function
    (* transient: worth retrying *)
    | Dapper_error.Pause_budget_exhausted
    | Dapper_error.Active_function _
    | Dapper_error.Transfer_timeout _
    | Dapper_error.Checksum_mismatch _
    | Dapper_error.Deadline_exceeded _ -> true
    (* structural: retrying cannot help *)
    | Dapper_error.Not_at_equivalence_point _
    | Dapper_error.Process_exited
    | Dapper_error.Dump_failed _
    | Dapper_error.Unwind_failed _
    | Dapper_error.Recode_failed _
    | Dapper_error.Shuffle_failed _
    | Dapper_error.Layout_incompatible _
    | Dapper_error.Restore_failed _
    | Dapper_error.Source_lost _
    | Dapper_error.Commit_failed _
    | Dapper_error.Verify_failed _ -> false
  in
  check Alcotest.int "one example per constructor" 16
    (List.length error_examples);
  List.iter
    (fun e ->
      check Alcotest.bool (Dapper_error.to_string e) (expect e)
        (Dapper_error.retriable e))
    error_examples

let test_error_stages () =
  let stage e = Dapper_error.stage_name (Dapper_error.stage_of e) in
  check Alcotest.string "timeout is a transfer error" "transfer"
    (stage (Dapper_error.Transfer_timeout "x"));
  check Alcotest.string "checksum mismatch is a transfer error" "transfer"
    (stage (Dapper_error.Checksum_mismatch "x"));
  check Alcotest.string "source loss strikes at commit" "commit"
    (stage (Dapper_error.Source_lost "x"));
  check Alcotest.string "commit failure" "commit"
    (stage (Dapper_error.Commit_failed "x"));
  (* every example renders and classifies without raising *)
  List.iter
    (fun e ->
      check Alcotest.bool "non-empty rendering" true
        (String.length (Dapper_error.to_string e) > 0);
      ignore (Dapper_error.stage_of e))
    error_examples

(* ----- the chaos plane ----- *)

let payload_sites = [ Fault.Transfer_chunk; Fault.Page_fetch ]
let node_sites = [ Fault.Source_node; Fault.Dest_restore; Fault.Dest_node ]

let test_fault_determinism () =
  let draw_all f =
    List.init 64 (fun i ->
        Fault.draw f (List.nth (payload_sites @ node_sites) (i mod 5)))
  in
  let a = Fault.make ~seed:42 (Fault.uniform 0.5) in
  let b = Fault.make ~seed:42 (Fault.uniform 0.5) in
  check Alcotest.bool "same seed, same schedule" true (draw_all a = draw_all b);
  check Alcotest.int "same seed, same injection count" (Fault.injected a)
    (Fault.injected b);
  let c = Fault.make ~seed:43 (Fault.uniform 0.5) in
  check Alcotest.bool "different seed, different schedule" true
    (draw_all a <> draw_all c)

let test_fault_calm_and_certain () =
  let calm = Fault.make ~seed:1 Fault.calm in
  List.iter
    (fun site ->
      for _ = 1 to 50 do
        check Alcotest.bool "calm never fires" true (Fault.draw calm site = None)
      done)
    (payload_sites @ node_sites);
  check Alcotest.int "calm injects nothing" 0 (Fault.injected calm);
  let certain =
    Fault.make ~seed:1
      { Fault.calm with Fault.fs_drop = 1.0; fs_crash_source = 1.0 }
  in
  check Alcotest.bool "certain drop" true
    (Fault.draw certain Fault.Transfer_chunk = Some Fault.Drop);
  check Alcotest.bool "certain crash" true
    (Fault.draw certain Fault.Source_node = Some Fault.Crash);
  check Alcotest.int "both injections logged" 2 (Fault.injected certain);
  check Alcotest.bool "uniform validates probability" true
    (match Fault.uniform 1.5 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_fault_corrupt_byte () =
  let data = Bytes.of_string (String.make 64 '\x00') in
  Fault.corrupt_byte 17L data;
  let flipped =
    List.length
      (List.filter (fun i -> Bytes.get data i <> '\x00')
         (List.init (Bytes.length data) Fun.id))
  in
  check Alcotest.int "exactly one byte flipped" 1 flipped;
  (* deterministic in the salt, and a no-op on empty payloads *)
  let again = Bytes.of_string (String.make 64 '\x00') in
  Fault.corrupt_byte 17L again;
  check Alcotest.bool "salt-deterministic" true (Bytes.equal data again);
  Fault.corrupt_byte 17L Bytes.empty

(* A payload in parts is corrupted as its concatenation would be, on a
   copy of the part hit: the caller's parts keep their bytes. *)
let qcheck_corrupt_parts =
  QCheck.Test.make ~count:300 ~name:"corrupt_parts = corrupt_byte on the concatenation"
    (QCheck.make
       ~print:(fun (salt, parts) ->
         Printf.sprintf "%Lx [%s]" salt (String.concat "; " (List.map (Printf.sprintf "%S") parts)))
       QCheck.Gen.(pair ui64 (list_size (int_range 0 5) (string_size ~gen:char (int_range 0 20)))))
    (fun (salt, parts) ->
      let before = List.map (fun p -> String.init (String.length p) (String.get p)) parts in
      let whole = Bytes.of_string (String.concat "" parts) in
      Fault.corrupt_byte salt whole;
      let got = Fault.corrupt_parts salt parts in
      String.concat "" got = Bytes.to_string whole
      && List.map String.length got = List.map String.length parts
      && parts = before)

(* ----- Event_heap: the discrete-event core ----- *)

let test_event_heap_basics () =
  let h = Event_heap.create () in
  check Alcotest.bool "pop empty" true (Event_heap.pop h = None);
  check Alcotest.bool "peek empty" true (Event_heap.peek h = None);
  Event_heap.push h ~time:2.0 "b";
  Event_heap.push h ~time:1.0 "a";
  Event_heap.push h ~time:3.0 "c";
  check Alcotest.bool "peek min" true (Event_heap.peek h = Some (1.0, "a"));
  check Alcotest.bool "drain sorted" true
    (Event_heap.drain h = [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]);
  check Alcotest.bool "drained empty" true (Event_heap.peek h = None);
  check Alcotest.bool "nan rejected" true
    (match Event_heap.push h ~time:Float.nan "x" with
     | exception Invalid_argument _ -> true
     | () -> false)

let test_event_heap_tie_break () =
  let h = Event_heap.create () in
  Event_heap.push h ~key:2 ~time:1.0 "k2-first";
  Event_heap.push h ~key:1 ~time:1.0 "k1";
  Event_heap.push h ~key:2 ~time:1.0 "k2-second";
  Event_heap.push h ~key:0 ~time:0.5 "early";
  check Alcotest.bool "key then push order on ties" true
    (List.map snd (Event_heap.drain h)
    = [ "early"; "k1"; "k2-first"; "k2-second" ])

(* Entries as (time, key) over a deliberately collision-heavy domain, so
   the tie-break paths get exercised; the payload is the push index. *)
let eh_entries = QCheck.(list (pair (int_bound 20) (int_bound 3)))

let eh_model entries =
  List.mapi (fun i (t, k) -> (float_of_int t, k, i)) entries
  |> List.stable_sort (fun (t1, k1, s1) (t2, k2, s2) ->
         compare (t1, k1, s1) (t2, k2, s2))
  |> List.map (fun (t, _, i) -> (t, i))

let eh_fill entries =
  let h = Event_heap.create () in
  List.iteri
    (fun i (t, k) -> Event_heap.push h ~key:k ~time:(float_of_int t) i)
    entries;
  h

let qcheck_event_heap_model =
  QCheck.Test.make ~name:"event_heap pops monotone and stable (list-sort model)"
    ~count:500 eh_entries (fun entries ->
      Event_heap.drain (eh_fill entries) = eh_model entries)

let qcheck_event_heap_interleaved =
  (* [Some entry] pushes, [None] pops: every pop must return the
     minimum of what a sorted-list model currently holds. *)
  QCheck.Test.make ~name:"event_heap interleaved push/pop roundtrip" ~count:500
    QCheck.(list (option (pair (int_bound 20) (int_bound 3))))
    (fun ops ->
      let h = Event_heap.create () in
      let model = ref [] and seq = ref 0 and ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some (t, k) ->
            Event_heap.push h ~key:k ~time:(float_of_int t) !seq;
            (* [model] stays sorted, and every [seq] is distinct *)
            model := List.merge compare [ (float_of_int t, k, !seq) ] !model;
            incr seq
          | None -> (
            match (Event_heap.pop h, !model) with
            | None, [] -> ()
            | Some (t, v), (mt, _, mv) :: rest when t = mt && v = mv ->
              model := rest
            | _ -> ok := false))
        ops;
      !ok && Event_heap.drain h = List.map (fun (t, _, v) -> (t, v)) !model)

let qcheck_event_heap_merge =
  (* Pushing stream A then stream B drains like merging their
     individually sorted runs, A winning ties — push order is the
     final tie-break. *)
  QCheck.Test.make ~name:"event_heap merge equals merged list-sorts" ~count:500
    (QCheck.pair eh_entries eh_entries) (fun (a, b) ->
      let h = eh_fill (a @ b) in
      let tag off entries =
        List.mapi (fun i (t, k) -> (float_of_int t, k, off + i)) entries
        |> List.stable_sort compare
      in
      let merged =
        List.merge compare (tag 0 a) (tag (List.length a) b)
        |> List.map (fun (t, _, i) -> (t, i))
      in
      Event_heap.drain h = merged)

let qcheck_json_int_roundtrip =
  QCheck.Test.make ~name:"json int64 roundtrip" ~count:200 QCheck.int64 (fun v ->
      Json_read.of_string (Json.to_string (Json.Int v)) = Json.Int v)

let qcheck_json_string_roundtrip =
  QCheck.Test.make ~name:"json string roundtrip" ~count:200 QCheck.printable_string
    (fun s -> Json_read.of_string (Json.to_string (Json.String s)) = Json.String s)

let suites =
  [ ( "util",
      [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "json members" `Quick test_json_members;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
        Alcotest.test_case "bytebuf roundtrip" `Quick test_bytebuf_roundtrip;
        Alcotest.test_case "fnv64 digests" `Quick test_fnv64;
        Alcotest.test_case "error classification exhaustive" `Quick
          test_error_classification;
        Alcotest.test_case "error stages" `Quick test_error_stages;
        Alcotest.test_case "fault schedule determinism" `Quick test_fault_determinism;
        Alcotest.test_case "fault calm/certain specs" `Quick test_fault_calm_and_certain;
        Alcotest.test_case "fault corrupt_byte" `Quick test_fault_corrupt_byte;
        Alcotest.test_case "event heap basics" `Quick test_event_heap_basics;
        Alcotest.test_case "event heap tie-break" `Quick test_event_heap_tie_break;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 64 |])
          qcheck_fnv64_reference;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 65 |])
          qcheck_fnv64_sub;
        Alcotest.test_case "fnv64_sub bounds" `Quick test_fnv64_sub_bounds;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 66 |]) qcheck_word64;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 67 |])
          qcheck_corrupt_parts;
        QCheck_alcotest.to_alcotest qcheck_event_heap_model;
        QCheck_alcotest.to_alcotest qcheck_event_heap_interleaved;
        QCheck_alcotest.to_alcotest qcheck_event_heap_merge;
        QCheck_alcotest.to_alcotest qcheck_json_int_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip ] ) ]
