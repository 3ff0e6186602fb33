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
  check Alcotest.bool "lazy image smaller" true
    (Images.total_bytes lazy_image < Images.total_bytes image)

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

(* No decoder stands between a core record and restore, so restore
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
   dump and restore exactly as they were. *)
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
      let q = ok (Restore.restore (ok (Dump.dump p)) bin) in
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

(* CRIT pins: the MD5 of [Crit.show] for blackscholes (main and four
   workers) paused after 200k instructions on each ISA and dumped eagerly
   and lazily, and for the x86-64 dumps recoded to aarch64. Only the one
   dhrystone dump in bin/crit_tool.expected and quickstart's core-0.img
   pin this JSON otherwise; however CRIT comes by its records, these must
   stay as they are. *)
let crit_show_lines () =
  let c = Dapper_workloads.Registry.(compiled (find "blackscholes")) in
  List.concat_map
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      ignore (Process.run p ~max_instrs:200_000);
      (match Monitor.request_pause p ~budget:30_000_000 with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
      let line what image = what ^ " " ^ Digest.to_hex (Digest.string (Crit.show image)) in
      List.concat_map
        (fun lazy_pages ->
          let image = ok (Dump.dump ~lazy_pages p) in
          let what = Printf.sprintf "%s %s" (if lazy_pages then "lazy" else "eager") in
          line (what (Dapper_isa.Arch.name arch)) image
          ::
          (if arch = Dapper_isa.Arch.X86_64 then
             [ line (what "x86-64->aarch64")
                 (fst (ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm))) ]
           else []))
        [ false; true ])
    Dapper_isa.Arch.all

let crit_show_pins =
  [ "eager x86-64 e5dc3d8885016380ceba4688b32a2174";
    "eager x86-64->aarch64 1ad188ced3e8c67851a519a8cf715e8d";
    "lazy x86-64 338b27e63b4e1f4f74e1cf1a32b25d69";
    "lazy x86-64->aarch64 a65bdc3534870f1bb2dc0a6da9a84334";
    "eager aarch64 1b3374a638daceb8850f6bbf41223c2a";
    "lazy aarch64 7d937c5e98fffe89ec63e6b499b9f07b" ]

let test_crit_show_pins () =
  check Alcotest.(list string) "Crit.show" crit_show_pins (crit_show_lines ())

let suites =
  [ ( "criu",
      [ Alcotest.test_case "dump requires quiescence" `Quick test_dump_requires_quiescence;
        Alcotest.test_case "dump stats / lazy mode" `Quick test_dump_stats;
        Alcotest.test_case "image read/write u64" `Quick test_image_read_write_u64;
        Alcotest.test_case "restore rejects wrong app" `Quick test_restore_rejects_wrong_app;
        Alcotest.test_case "lazy restore needs server" `Quick test_lazy_restore_without_server_faults;
        Alcotest.test_case "identity checkpoint/restore" `Quick
          test_checkpoint_restore_preserves_everything;
        Alcotest.test_case "restore rejects a short register context" `Quick
          test_restore_rejects_short_context;
        Alcotest.test_case "registers and pc survive dump and restore" `Quick
          test_registers_round_trip ]
      @ [ Alcotest.test_case "restore without the flag's page" `Quick
            test_restore_without_flag_page;
          Alcotest.test_case "crit show pins" `Quick test_crit_show_pins ] ) ]
