open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_machine

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Restore_failed s) fmt

let restore_exn ?page_source (is : Images.image_set) (binary : Binary.t) =
  if not (Arch.equal is.is_files.fi_arch binary.Binary.bin_arch) then
    fail "architecture mismatch: image is %s, binary is %s"
      (Arch.name is.is_files.fi_arch)
      (Arch.name binary.Binary.bin_arch);
  if is.is_files.fi_app <> binary.Binary.bin_app then
    fail "binary mismatch: image is %s, binary is %s" is.is_files.fi_app
      binary.Binary.bin_app;
  List.iter
    (fun (tc : Images.thread_core) ->
      if not (Arch.equal tc.tc_arch binary.Binary.bin_arch) then
        fail "thread %d register set is %s, binary is %s" tc.tc_tid
          (Arch.name tc.tc_arch)
          (Arch.name binary.Binary.bin_arch);
      if Array.length tc.tc_regs <> Process.reg_count then
        fail "thread %d has %d registers, expected %d" tc.tc_tid
          (Array.length tc.tc_regs) Process.reg_count)
    is.is_cores;
  let lazy_pages = Hashtbl.create 64 in
  List.iter (fun pn -> Hashtbl.replace lazy_pages pn ()) (Images.lazy_pages is);
  (* Restore lowers the transformation-request flag below, so its page
     must come with the image, dumped or lazy. *)
  let flag_pn = Layout.page_of_addr binary.Binary.bin_anchors.a_flag in
  if not (Images.Pages.mem flag_pn is.is_pages || Hashtbl.mem lazy_pages flag_pn) then
    fail "page %d, which holds the transformation flag, is neither dumped nor lazy" flag_pn;
  let mem = Memory.create () in
  Images.Pages.iter (fun pn data -> Memory.map_page mem pn (Bytes.of_string data)) is.is_pages;
  let threads =
    List.map
      (fun (tc : Images.thread_core) ->
        Process.restored_thread ~tid:tc.tc_tid ~regs:tc.tc_regs ~pc:tc.tc_pc
          ~tls:tc.tc_tls)
      is.is_cores
  in
  (* An owed page is served once by [page_source], then no longer owed. *)
  let owed pn =
    if not (Hashtbl.mem lazy_pages pn) then None
    else
      match Option.bind page_source (fun src -> src pn) with
      | Some _ as page ->
        Hashtbl.remove lazy_pages pn;
        Some page
      | None -> Some None
  in
  let p = Process.reconstruct binary mem ~owed ~threads ~brk:is.is_mm.mm_brk in
  (* Drop the transformation-request flag so checkers do not re-trap. A
     lazy flag page that the page source cannot serve fails the restore. *)
  (try Memory.write_u64 mem binary.Binary.bin_anchors.a_flag 0L
   with Memory.Segfault _ ->
     fail "page %d, which holds the transformation flag, could not be fetched" flag_pn);
  p

let restore ?page_source is binary =
  Dapper_error.protect (fun () -> restore_exn ?page_source is binary)
