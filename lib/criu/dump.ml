open Dapper_util
open Dapper_binary
open Dapper_machine

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Dump_failed s) fmt

let dump_exn ?(lazy_pages = false) (p : Process.t) =
  if not (Process.all_quiescent p) then
    fail "process has runnable threads; quiesce it first";
  let live = Process.live_threads p in
  (* Execution-context pages: where each live thread's pc points. *)
  let pc_pages =
    List.map (fun th -> Layout.page_of_addr (Process.pc th)) live
  in
  let pages = Memory.page_numbers p.Process.mem in
  let classified =
    Array.fold_right
      (fun pn acc ->
        match Process.vma_kind_of_page p pn with
        | Some k -> (pn, k) :: acc
        | None -> acc)
      pages []
  in
  (* Dump policy per page. *)
  let in_dump (pn, kind) =
    match kind with
    | Process.Vma_code -> List.mem pn pc_pages
    | Process.Vma_stack _ -> true
    | Process.Vma_data | Process.Vma_tls | Process.Vma_heap -> not lazy_pages
  in
  (* Pages that are code but not execution context are omitted entirely:
     they reload from the binary. Everything else appears in the pagemap,
     dumped or lazy. *)
  let listed =
    List.filter
      (fun (pn, kind) -> kind <> Process.Vma_code || List.mem pn pc_pages)
      classified
  in
  let disposed = List.map (fun ((pn, _) as page) -> (pn, in_dump page)) listed in
  (* One snapshot of each dumped page, shared with the process: its next
     write to the page copies it. *)
  let snapshot =
    List.fold_left
      (fun acc (pn, d) ->
        if not d then acc
        else
          match Memory.share_page p.Process.mem pn with
          | Some data -> Images.Pages.add pn data acc
          | None -> fail "page %d vanished" pn)
      Images.Pages.empty disposed
  in
  (* VMAs: contiguous same-kind runs over all mapped pages. *)
  let vmas =
    let rec go acc = function
      | [] -> List.rev acc
      | (pn, kind) :: rest ->
        (match acc with
         | { Images.v_start; v_npages; v_kind } :: acc_rest
           when v_kind = kind
                && Int64.equal
                     (Int64.add v_start (Int64.of_int (v_npages * Layout.page_size)))
                     (Layout.addr_of_page pn) ->
           go ({ Images.v_start; v_npages = v_npages + 1; v_kind = kind } :: acc_rest) rest
         | _ ->
           go ({ Images.v_start = Layout.addr_of_page pn; v_npages = 1; v_kind = kind } :: acc)
             rest)
    in
    go [] classified
  in
  let cores =
    List.map
      (fun (th : Process.thread) ->
        { Images.tc_tid = th.tid; tc_arch = p.Process.arch;
          tc_regs = Process.regs_array th; tc_pc = Process.pc th; tc_tls = th.tls })
      live
  in
  { Images.is_cores = cores;
    is_mm = { Images.mm_brk = p.Process.brk; mm_vmas = vmas };
    is_pagemap = Images.pagemap_of_pages disposed;
    is_pages = snapshot;
    is_files = { Images.fi_app = p.Process.binary.Dapper_binary.Binary.bin_app;
                 fi_arch = p.Process.arch } }

let dump ?lazy_pages p = Dapper_error.protect (fun () -> dump_exn ?lazy_pages p)

type stats = { pages_dumped : int; pages_lazy : int }

let stats_of (is : Images.image_set) =
  let dumped, lazy_ =
    List.fold_left
      (fun (d, l) (e : Images.pagemap_entry) ->
        if e.pm_in_dump then (d + e.pm_npages, l) else (d, l + e.pm_npages))
      (0, 0) is.is_pagemap
  in
  { pages_dumped = dumped; pages_lazy = lazy_ }
