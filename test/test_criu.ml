open Dapper_machine
open Dapper_criu
open Dapper
module Layout = Dapper_binary.Layout
module Link = Dapper_codegen.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

let paused_process () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:300_000);
  (match Monitor.request_pause p ~budget:20_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  (c, p)

let test_dump_requires_quiescence () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  check Alcotest.bool "dump rejects running process" true
    (match Dump.dump p with
     | Error (Dapper_util.Dapper_error.Dump_failed _) -> true
     | _ -> false)

let test_dump_stats () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let stats = Dump.stats_of image in
  check Alcotest.bool "pages dumped" true (stats.Dump.pages_dumped > 0);
  check Alcotest.int "nothing lazy in vanilla mode" 0 stats.Dump.pages_lazy;
  let lazy_image = ok (Dump.dump ~lazy_pages:true p) in
  let lstats = Dump.stats_of lazy_image in
  check Alcotest.bool "lazy leaves pages behind" true (lstats.Dump.pages_lazy > 0);
  check Alcotest.bool "lazy dumps fewer" true (lstats.Dump.pages_dumped < stats.Dump.pages_dumped);
  check Alcotest.bool "lazy image smaller" true (lstats.Dump.bytes < stats.Dump.bytes)

let test_image_read_write_u64 () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  (* two consecutive dumped pages: write through write_page, read back
     through read_u64 *)
  let e =
    List.find
      (fun (e : Images.pagemap_entry) -> e.pm_in_dump && e.pm_npages >= 2)
      image.Images.is_pagemap
  in
  let pn = Layout.page_of_addr e.pm_vaddr in
  let page pn = Bytes.of_string (Option.get (Images.read_page image pn)) in
  let first = page pn in
  Bytes.set_int64_le first 16 0xC0FFEEL;
  let image' = Images.write_page image pn (Bytes.to_string first) in
  let addr = Int64.add e.pm_vaddr 16L in
  check Alcotest.int64 "readback" 0xC0FFEEL (Images.read_u64 image' addr);
  check Alcotest.int64 "others untouched"
    (Images.read_u64 image (Int64.add addr 8L))
    (Images.read_u64 image' (Int64.add addr 8L));
  (* a u64 that straddles the two pages: its low half ends the first,
     its high half starts the second *)
  Bytes.set_int32_le first (Layout.page_size - 4) 0x04030201l;
  let second = page (pn + 1) in
  Bytes.set_int32_le second 0 0x08070605l;
  let image'' =
    Images.write_page
      (Images.write_page image' pn (Bytes.to_string first))
      (pn + 1) (Bytes.to_string second)
  in
  check Alcotest.int64 "read across the page boundary" 0x0807060504030201L
    (Images.read_u64 image'' (Int64.sub (Layout.addr_of_page (pn + 1)) 4L))

let test_image_file_errors () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let files = Images.to_files image in
  (* missing file *)
  check Alcotest.bool "missing pagemap" true
    (match Images.of_files (List.remove_assoc "pagemap.img" files) with
     | exception Images.Image_error _ -> true
     | _ -> false);
  (* corrupted protobuf *)
  let corrupt =
    List.map
      (fun (name, bytes) ->
        if name = "mm.img" then (name, String.sub bytes 0 (String.length bytes / 2))
        else (name, bytes))
      files
  in
  check Alcotest.bool "corrupt mm.img" true
    (match Images.of_files corrupt with
     | exception Images.Image_error _ -> true
     | _ -> false)

(* Malformed input in an otherwise valid set must surface as
   [Image_error], the one error [of_files] promises: malformed protobuf
   in one file, or a pagemap and pages-1.img that break the page
   table's invariant. Each case replaces one or two files of a tiny
   well-formed image. *)
let malformed_image_files =
  let module P = Dapper_proto.Proto in
  let tiny =
    { Images.is_cores =
        [ { Images.tc_tid = 0; tc_arch = Dapper_isa.Arch.X86_64;
            tc_regs = Array.make Process.reg_count 1L; tc_pc = 0x1000L; tc_tls = 0L } ];
      is_mm = { Images.mm_brk = 0x2000L; mm_vmas = [] };
      is_pagemap = [];
      is_pages = Images.Pages.empty;
      is_files = { Images.fi_app = "tiny"; fi_arch = Dapper_isa.Arch.X86_64 } }
  in
  let core_with_regs n =
    let core = { (List.hd tiny.Images.is_cores) with Images.tc_regs = Array.make n 1L } in
    List.assoc "core-0.img" (Images.to_files { tiny with Images.is_cores = [ core ] })
  in
  (* a pagemap of (vaddr, pages, in dump) entries and [n] pages of zeros *)
  let pagemap entries =
    ( "pagemap.img",
      Images.encode_pagemap
        (List.map
           (fun (pm_vaddr, pm_npages, pm_in_dump) ->
             { Images.pm_vaddr; pm_npages; pm_in_dump })
           entries) )
  in
  let pages n = ("pages-1.img", String.make (n * Layout.page_size) '\000') in
  let data = Layout.data_base in
  List.map
    (fun (what, replaced) ->
      Alcotest.test_case ("of_files rejects " ^ what) `Quick (fun () ->
          let files =
            List.map
              (fun (n, b) -> (n, Option.value (List.assoc_opt n replaced) ~default:b))
              (Images.to_files tiny)
          in
          check Alcotest.bool what true
            (match Images.of_files files with
             | exception Images.Image_error _ -> true
             | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
             | _ -> false)))
    [ ("a truncated mm.img", [ ("mm.img", "\x08") ]);
      ( "an mm.img without its brk tag",
        [ ( "mm.img",
            P.encode
              [ P.v_msg 2 [ P.v_fix 1 0x1000L; P.v_int 2 1L; P.v_int 3 1L; P.v_int 4 0L ] ] ) ] );
      ( "a core-0.img with a 2^62-byte field",
        [ ("core-0.img", "\x0a\x80\x80\x80\x80\x80\x80\x80\x80\x40") ] );
      ("8 registers in a core-0.img", [ ("core-0.img", core_with_regs 8) ]);
      ("0 registers in a core-0.img", [ ("core-0.img", core_with_regs 0) ]);
      ( "a pages-1.img one byte short",
        [ pagemap [ (data, 1, true) ];
          ("pages-1.img", String.make (Layout.page_size - 1) '\000') ] );
      ("a pages-1.img one page short", [ pagemap [ (data, 2, true) ]; pages 1 ]);
      ("a pages-1.img one page extra", [ pagemap [ (data, 1, true) ]; pages 2 ]);
      ( "an overlapping pagemap entry",
        [ pagemap [ (data, 2, true); (Int64.add data 4096L, 1, true) ]; pages 3 ] );
      ("a 2^40-page lazy pagemap entry", [ pagemap [ (data, 1 lsl 40, false) ] ]);
      ( "an unaligned pagemap entry",
        [ pagemap [ (Int64.add data 8L, 1, true) ]; pages 1 ] );
      ("an empty pagemap entry", [ pagemap [ (data, 0, true) ] ]) ]

(* An in-memory image never passes through [decode_core], so restore
   checks the register count itself. *)
let test_restore_rejects_short_context () =
  let c, p = paused_process () in
  let image = ok (Dump.dump p) in
  let short (tc : Images.thread_core) = { tc with tc_regs = Array.sub tc.tc_regs 0 8 } in
  let image = { image with Images.is_cores = List.map short image.Images.is_cores } in
  check Alcotest.bool "8-register context rejected" true
    (match Restore.restore image c.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
     | _ -> false)

(* Every thread's 33 registers and its pc, all 64 bits, come back from
   dump, the image files and restore exactly as they were. *)
let test_registers_round_trip () =
  let c = Dapper_workloads.Registry.(compiled (find "blackscholes")) in
  List.iter
    (fun arch ->
      let bin = Link.binary_for c arch in
      let p = Process.load bin in
      ignore (Process.run p ~max_instrs:300_000);
      (match Monitor.request_pause p ~budget:20_000_000 with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
      let image = Images.of_files (Images.to_files (ok (Dump.dump p))) in
      let q = ok (Restore.restore image bin) in
      let label = Dapper_isa.Arch.name arch in
      let src = Process.live_threads p in
      check Alcotest.int (label ^ ": main and four workers") 5 (List.length src);
      check Alcotest.int (label ^ ": threads restored") (List.length src)
        (List.length q.Process.threads);
      List.iter
        (fun (th : Process.thread) ->
          let th' = Process.thread q th.tid in
          let what = Printf.sprintf "%s: thread %d" label th.tid in
          check Alcotest.(array int64) (what ^ " registers") (Process.regs_array th)
            (Process.regs_array th');
          check Alcotest.int64 (what ^ " pc") (Process.pc th) (Process.pc th'))
        src)
    Dapper_isa.Arch.all

(* Restore lowers the transformation flag in memory. With the flag's
   page neither dumped nor lazy it cannot, and says so as
   [Restore_failed] instead of letting the fault handler's [Segfault]
   out. *)
let test_restore_without_flag_page () =
  let c, p = paused_process () in
  let image = ok (Dump.dump p) in
  let flag_pn = Layout.page_of_addr c.Link.cp_x86.Dapper_binary.Binary.bin_anchors.a_flag in
  check Alcotest.bool "flag page dumped" true (Images.Pages.mem flag_pn image.Images.is_pages);
  let pages = Images.Pages.remove flag_pn image.Images.is_pages in
  let image =
    { image with
      Images.is_pages = pages;
      is_pagemap =
        Images.pagemap_of_pages (List.map (fun (pn, _) -> (pn, true)) (Images.Pages.bindings pages)) }
  in
  check Alcotest.bool "Restore_failed" true
    (match Restore.restore image c.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
     | _ -> false)

let test_restore_rejects_wrong_app () =
  let _, p = paused_process () in
  let image = ok (Dump.dump p) in
  let other = Registry_helpers.other_app () in
  check Alcotest.bool "wrong app rejected" true
    (match Restore.restore image other.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
     | _ -> false)

let test_lazy_restore_without_server_faults () =
  let _, p = paused_process () in
  let image = ok (Dump.dump ~lazy_pages:true p) in
  (* The flag page is lazy, and restore clears the flag: without a page
     source, or with one that serves nothing, the restore fails. *)
  List.iter
    (fun (what, page_source) ->
      check Alcotest.bool what true
        (match Restore.restore ?page_source image p.Process.binary with
         | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
         | Ok _ | Error _ -> false))
    [ ("no page source: Restore_failed", None);
      ("page source serving nothing: Restore_failed", Some (fun _ -> None)) ]

let test_crit_rejects_pages_encode () =
  check Alcotest.bool "pages are raw" true
    (match Crit.encode_file "pages-1.img" Dapper_util.Json.Null with
     | exception Crit.Crit_error _ -> true
     | _ -> false)

(* Regression: malformed bytes let the decoders' Proto.Decode_error out
   of Crit.decode_file, which declares only Crit_error. *)
let malformed_crit_files =
  List.map
    (fun (name, bytes) ->
      Alcotest.test_case ("crit rejects malformed " ^ name) `Quick (fun () ->
          check Alcotest.bool name true
            (match Crit.decode_file name bytes with
             | exception Crit.Crit_error _ -> true
             | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
             | _ -> false)))
    [ ("mm.img", "\x08"); ("pagemap.img", "\x08"); ("core-0.img", "\x0a\xff") ]

let test_checkpoint_restore_preserves_everything () =
  (* identity: dump + restore on the same binary continues exactly *)
  let c, p = paused_process () in
  let out_before = Process.stdout_contents p in
  let image = ok (Dump.dump p) in
  let q = ok (Restore.restore image c.Link.cp_x86) in
  Monitor.resume p;
  (match (Process.run_to_completion p ~fuel:50_000_000,
          Process.run_to_completion q ~fuel:50_000_000) with
   | Process.Exited_run a, Process.Exited_run b ->
     check Alcotest.bool "same exit" true (Int64.equal a b);
     check Alcotest.string "same output overall"
       (Process.stdout_contents p)
       (out_before ^ Process.stdout_contents q)
   | _ -> Alcotest.fail "runs did not finish")

let suites =
  [ ( "criu",
      [ Alcotest.test_case "dump requires quiescence" `Quick test_dump_requires_quiescence;
        Alcotest.test_case "dump stats / lazy mode" `Quick test_dump_stats;
        Alcotest.test_case "image read/write u64" `Quick test_image_read_write_u64;
        Alcotest.test_case "image file errors" `Quick test_image_file_errors;
        Alcotest.test_case "restore rejects wrong app" `Quick test_restore_rejects_wrong_app;
        Alcotest.test_case "lazy restore needs server" `Quick test_lazy_restore_without_server_faults;
        Alcotest.test_case "crit pages are raw" `Quick test_crit_rejects_pages_encode;
        Alcotest.test_case "identity checkpoint/restore" `Quick
          test_checkpoint_restore_preserves_everything;
        Alcotest.test_case "restore rejects a short register context" `Quick
          test_restore_rejects_short_context;
        Alcotest.test_case "registers and pc survive dump and restore" `Quick
          test_registers_round_trip ]
      @ malformed_image_files
      @ [ Alcotest.test_case "restore without the flag's page" `Quick
            test_restore_without_flag_page ]
      @ malformed_crit_files ) ]
