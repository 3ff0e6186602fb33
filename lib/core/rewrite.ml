open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_criu

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Recode_failed s) fmt

type stats = {
  st_threads : int;
  st_frames : int;
  st_values : int;
  st_ptrs_translated : int;
  st_code_pages : int;
  st_stack_bytes : int;
  st_plan_hits : int;
  st_plan_misses : int;
  st_index_lookups : int;
  st_interval_lookups : int;
  st_memo_page_hits : int;
  st_memo_thread_hits : int;
  st_skipped_bytes : int;
}

let work_items s =
  s.st_frames + s.st_values + s.st_ptrs_translated + (s.st_code_pages * 8)
  + (s.st_stack_bytes / 256)

(* ----- pages while rebuilding the image -----
   The output shares every page it does not write with the source
   image. A page is copied on its first write; [commit] hands the
   written copies to the table, after which nothing mutates them. *)

type store = {
  mutable table : string Images.Pages.t;
  written : (int, Bytes.t) Hashtbl.t;  (* pages written since the last commit *)
}

let page_for_write st pn =
  match Hashtbl.find_opt st.written pn with
  | Some b -> b
  | None ->
    (match Images.Pages.find_opt pn st.table with
     | Some page ->
       let b = Bytes.of_string page in
       Hashtbl.replace st.written pn b;
       b
     | None -> fail "rewriter touched page %d which is not in the dump" pn)

let commit st =
  Hashtbl.iter
    (fun pn b -> st.table <- Images.Pages.add pn (Bytes.unsafe_to_string b) st.table)
    st.written;
  Hashtbl.reset st.written

let store_write_u64 st addr v =
  let pn = Layout.page_of_addr addr in
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.set_int64_le (page_for_write st pn) off v
  else
    for k = 0 to 7 do
      let a = Int64.add addr (Int64.of_int k) in
      Bytes.set
        (page_for_write st (Layout.page_of_addr a))
        (Layout.page_offset a)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
    done

let store_write_bytes st addr s =
  String.iteri
    (fun k c ->
      let a = Int64.add addr (Int64.of_int k) in
      Bytes.set (page_for_write st (Layout.page_of_addr a)) (Layout.page_offset a) c)
    s

let zero_page = String.make Layout.page_size '\000'

let is_code_page pn =
  let a = Layout.addr_of_page pn in
  Int64.compare a Layout.code_base >= 0 && Int64.compare a Layout.data_base < 0

(* ----- destination frame placement ----- *)

type dst_frame = {
  df_src : Unwind.frame;
  df_fm : Stackmap.func_map;
  df_ep : Stackmap.eqpoint;
  df_fp : int64;
}

(* Initial stack pointer a fresh thread starts with (before any implicit
   return-address push), matching Process.setup_stack. *)
let initial_sp tid = Int64.sub (Layout.stack_base_of_thread tid) 64L

let place_frames ix_dst tid (ts : Unwind.thread_stack) =
  let frames = List.rev ts.Unwind.ts_frames in
  (* outermost first *)
  let rec go sp acc = function
    | [] -> List.rev acc
    | (fr : Unwind.frame) :: rest ->
      let fm =
        match Stackmap_index.find_func ix_dst fr.fr_func.fm_name with
        | Some fm -> fm
        | None -> fail "function %s missing from destination stack maps" fr.fr_func.fm_name
      in
      let ep =
        match Stackmap_index.eqpoint_by_id ix_dst fm.fm_name fr.fr_ep.ep_id with
        | Some ep -> ep
        | None ->
          fail "equivalence point %d missing from %s on destination" fr.fr_ep.ep_id
            fm.fm_name
      in
      let fp = Int64.sub sp 16L in
      let sp' = Int64.sub fp (Int64.of_int fm.fm_frame_size) in
      go sp' ({ df_src = fr; df_fm = fm; df_ep = ep; df_fp = fp } :: acc) rest
  in
  go (initial_sp tid) [] frames

(* ----- the rewrite ----- *)

let rewrite_exn ?memo (image : Images.image_set) ~(src : Binary.t) ~(dst : Binary.t) =
  if not (Arch.equal image.is_files.fi_arch src.bin_arch) then
    fail "image architecture %s does not match source binary %s"
      (Arch.name image.is_files.fi_arch) (Arch.name src.bin_arch);
  if image.is_files.fi_app <> src.bin_app || src.bin_app <> dst.bin_app then
    fail "application mismatch between image and binaries";
  let dst_arch = dst.bin_arch in
  (* This run's own lookup handles: their counts are [st_index_lookups]. *)
  let ix_src = Binary.index src and ix_dst = Binary.index dst in
  (* ok_exn re-raises the carrier: an unwind failure surfaces from the
     public [rewrite] as [Unwind_failed], not disguised as a recode. *)
  let stacks = Dapper_error.ok_exn (Unwind.unwind_all image ix_src ~anchors:src.bin_anchors) in
  let placed =
    List.map (fun ts -> (ts, place_frames ix_dst ts.Unwind.ts_tid ts)) stacks
  in
  (* Global source-stack interval map for pointer translation. Which live
     values contribute an interval is a frame-placement decision memoized
     in the plan cache; the concrete offsets come from the current
     binaries' stack-map indexes. *)
  let frame_off ix fn ep_id key =
    match Stackmap_index.live_value ix fn ep_id key with
    | Some { Stackmap.lv_loc = Stackmap.Frame off; _ } -> off
    | Some { Stackmap.lv_loc = Stackmap.Reg _; _ } | None ->
      fail "%s: plan expects frame-resident live value at ep %d" fn ep_id
  in
  let intervals = ref [] in
  let plan_hits = ref 0 and plan_misses = ref 0 in
  List.iter
    (fun ((_ : Unwind.thread_stack), dframes) ->
      List.iter
        (fun df ->
          let fn = df.df_fm.Stackmap.fm_name in
          let ep_id = df.df_ep.Stackmap.ep_id in
          let plan, hit =
            Plan_cache.lookup ~app:src.bin_app ~src_arch:src.bin_arch ~dst_arch
              ~fn ~ep_id ~src_ep:df.df_src.fr_ep ~dst_ep:df.df_ep
          in
          incr (if hit then plan_hits else plan_misses);
          List.iter
            (fun (key, size) ->
              let src_off = frame_off ix_src fn ep_id key in
              let dst_off = frame_off ix_dst fn ep_id key in
              let src_lo = Int64.add df.df_src.fr_fp (Int64.of_int src_off) in
              let dst_lo = Int64.add df.df_fp (Int64.of_int dst_off) in
              intervals :=
                (src_lo, Int64.add src_lo (Int64.of_int size), dst_lo) :: !intervals)
            plan.Plan_cache.pl_intervals)
        dframes)
    placed;
  let intervals = !intervals in
  let imap = Dapper_util.Interval_map.of_list intervals in
  let imap_ok = Dapper_util.Interval_map.disjoint imap in
  let ptrs_translated = ref 0 in
  let interval_lookups = ref 0 in
  let translate v =
    incr interval_lookups;
    if imap_ok then
      match Dapper_util.Interval_map.find_interval imap v with
      | Some (lo, _, dst_lo) ->
        incr ptrs_translated;
        Int64.add dst_lo (Int64.sub v lo)
      | None -> v
    else
      (* Overlapping intervals: fall back to the first-match linear scan
         so translation picks the same interval the unindexed rewriter
         would have. *)
      match
        List.find_opt
          (fun (lo, hi, _) -> Int64.compare v lo >= 0 && Int64.compare v hi < 0)
          intervals
      with
      | Some (lo, _, dst_lo) ->
        incr ptrs_translated;
        Int64.add dst_lo (Int64.sub v lo)
      | None -> v
  in
  (* The new page table: the source's without its execution-context code
     pages; the destination's are added below. *)
  let st =
    { table = Images.Pages.filter (fun pn _ -> not (is_code_page pn)) image.is_pages;
      written = Hashtbl.create 16 }
  in
  (* Output-level memoization context: the environment digest pins the
     memo to this exact binary pair (stack-map contents, destination
     text, anchors, architectures); the interval-set digest captures the
     only cross-thread coupling a thread's rewritten output depends on.
     Marshalled without sharing, the digest reads the maps' contents
     only, so equal maps held in distinct records give the same key. *)
  let memo_ctx =
    match memo with
    | None -> None
    | Some m ->
      let env =
        Digest.string
          (Marshal.to_string
             ( src.bin_app, Arch.name src.bin_arch, Arch.name dst_arch,
               src.bin_stackmaps, dst.bin_stackmaps,
               src.bin_anchors, dst.bin_anchors,
               match Binary.find_section dst ".text" with
               | Some s -> Digest.string s.sec_data
               | None -> "" )
             [ Marshal.No_sharing ])
      in
      ignore (Plan_cache.memo_bind m ~env);
      Some (m, Digest.string (Marshal.to_string intervals []))
  in
  (* A thread's rewritten output is a function of its own unwound stack
     (frames, live-value bytes), its argument registers and TLS, which
     of its stack pages the dump contains, and the interval set — the
     memo key digests exactly those. *)
  let thread_digest (ts : Unwind.thread_stack) pages ivd =
    Digest.string
      (Marshal.to_string
         ( ts.Unwind.ts_tid,
           List.map
             (fun (fr : Unwind.frame) ->
               ( fr.Unwind.fr_func.Stackmap.fm_name, fr.Unwind.fr_ep.Stackmap.ep_id,
                 fr.Unwind.fr_at_call, fr.Unwind.fr_fp, fr.Unwind.fr_values ))
             ts.Unwind.ts_frames,
           ts.Unwind.ts_arg_regs, ts.Unwind.ts_tls, pages, ivd )
         [])
  in
  (* Stack page numbers of one thread present in the dump. *)
  let thread_pages (ts : Unwind.thread_stack) =
    let tid = ts.Unwind.ts_tid in
    let first = Layout.page_of_addr (Layout.stack_limit_of_thread tid) in
    let last = Layout.page_of_addr (Int64.sub (Layout.stack_base_of_thread tid) 1L) in
    let acc = ref [] in
    for pn = first to last do
      if Images.Pages.mem pn st.table then acc := pn :: !acc
    done;
    List.rev !acc
  in
  let stack_bytes = ref 0 in
  let zero_thread pages =
    List.iter
      (fun pn ->
        st.table <- Images.Pages.add pn zero_page st.table;
        stack_bytes := !stack_bytes + Layout.page_size)
      pages
  in
  let frames_count = ref 0 in
  let values_count = ref 0 in
  let rewrite_thread (ts : Unwind.thread_stack) (dframes : dst_frame list) =
    let tid = ts.Unwind.ts_tid in
    let ctx = Array.make Dapper_machine.Process.reg_count 0L in
    let caller_fp = ref 0L in
    let ret_addr =
      ref
        (if tid = 0 then dst.bin_anchors.a_exit_stub
         else dst.bin_anchors.a_thread_exit_stub)
    in
    let n = List.length dframes in
    List.iteri
      (fun k df ->
        incr frames_count;
        let innermost = k = n - 1 in
        let fp = df.df_fp in
        (* return address per destination ABI *)
        (match dst_arch with
         | Arch.X86_64 -> store_write_u64 st (Int64.add fp 8L) !ret_addr
         | Arch.Aarch64 ->
           if df.df_fm.fm_leaf && innermost && not df.df_src.fr_at_call then
             ctx.(30) <- !ret_addr
           else store_write_u64 st (Int64.add fp 8L) !ret_addr);
        (* caller frame-pointer chain *)
        store_write_u64 st fp !caller_fp;
        caller_fp := fp;
        (* save area holds the caller's callee-saved register values *)
        List.iter
          (fun (r, off) -> store_write_u64 st (Int64.add fp (Int64.of_int off)) ctx.(r))
          df.df_fm.fm_saved;
        (* live values; hash the source frame's values once instead of an
           assoc scan per destination live value *)
        let src_values = Hashtbl.create (List.length df.df_src.fr_values) in
        List.iter
          (fun (key, bytes) ->
            if not (Hashtbl.mem src_values key) then Hashtbl.add src_values key bytes)
          df.df_src.fr_values;
        List.iter
          (fun (lv : Stackmap.live_value) ->
            incr values_count;
            let bytes =
              match Hashtbl.find_opt src_values lv.lv_key with
              | Some b -> b
              | None ->
                fail "%s: live value missing from source at ep %d" df.df_fm.fm_name
                  df.df_ep.ep_id
            in
            if String.length bytes <> lv.lv_size then
              fail "%s: live value size mismatch" df.df_fm.fm_name;
            (* Stack pointers are translated eagerly: the interval map was
               built from the completed frame placement of every thread, and
               [ctx] is reused frame to frame — a caller's promoted pointer
               must be translated before the callee's save-area write copies
               it, and before the callee reassigns the register. *)
            match lv.lv_loc with
            | Stackmap.Reg r ->
              let value = Dapper_util.Bytebuf.get_i64 bytes 0 in
              ctx.(r) <-
                (if lv.lv_ty = Stackmap.Lv_ptr && Layout.in_stack_region value then
                   translate value
                 else value)
            | Stackmap.Frame off ->
              let base = Int64.add fp (Int64.of_int off) in
              if lv.lv_ty = Stackmap.Lv_ptr then
                for e = 0 to (lv.lv_size / 8) - 1 do
                  let value = Dapper_util.Bytebuf.get_i64 bytes (e * 8) in
                  let a = Int64.add base (Int64.of_int (e * 8)) in
                  store_write_u64 st a
                    (if Layout.in_stack_region value then translate value else value)
                done
              else store_write_bytes st base bytes)
          df.df_ep.ep_live;
        ret_addr := df.df_ep.ep_resume)
      dframes;
    let inner =
      match List.rev dframes with
      | inner :: _ -> inner
      | [] -> fail "thread %d has no frames" tid
    in
    let pc =
      if inner.df_src.fr_at_call then inner.df_ep.ep_addr else inner.df_ep.ep_resume
    in
    ctx.(Arch.fp dst_arch) <- inner.df_fp;
    ctx.(Arch.sp dst_arch) <-
      Int64.sub inner.df_fp (Int64.of_int inner.df_fm.fm_frame_size);
    List.iteri
      (fun idx value -> ctx.(List.nth (Arch.arg_regs dst_arch) idx) <- value)
      ts.ts_arg_regs;
    let tls =
      Int64.add
        (Int64.sub ts.ts_tls (Int64.of_int (Arch.tls_offset src.bin_arch)))
        (Int64.of_int (Arch.tls_offset dst_arch))
    in
    { Images.tc_tid = tid; tc_arch = dst_arch; tc_regs = ctx; tc_pc = pc; tc_tls = tls }
  in
  let memo_page_hits = ref 0 in
  let memo_thread_hits = ref 0 in
  let skipped_bytes = ref 0 in
  (* Per-thread zero + rewrite. A thread's writes are confined to its own
     stack pages and its reads come from the unwound [fr_values] (captured
     before any zeroing), so interleaving zero/rewrite per thread is
     equivalent to the zero-all-then-rewrite-all order — which lets a
     memo hit skip both for an unchanged thread. *)
  let run_thread (ts : Unwind.thread_stack) dframes =
    let pages = thread_pages ts in
    let rewrite () =
      zero_thread pages;
      let tc = rewrite_thread ts dframes in
      commit st;
      tc
    in
    match memo_ctx with
    | None -> rewrite ()
    | Some (m, ivd) ->
      let digest = thread_digest ts pages ivd in
      (match Plan_cache.memo_thread_hit m ts.Unwind.ts_tid digest with
       | Some patch ->
         incr memo_thread_hits;
         List.iter
           (fun (pn, data) ->
             st.table <- Images.Pages.add pn data st.table;
             skipped_bytes := !skipped_bytes + String.length data)
           patch.Plan_cache.tp_pages;
         patch.Plan_cache.tp_core
       | None ->
         let tc = rewrite () in
         let patch =
           { Plan_cache.tp_core = tc;
             tp_pages = List.map (fun pn -> (pn, Images.Pages.find pn st.table)) pages }
         in
         Plan_cache.memo_thread_store m ts.Unwind.ts_tid digest patch;
         tc)
  in
  let new_cores = List.map (fun (ts, dframes) -> run_thread ts dframes) placed in
  (* Destination execution-context code pages. *)
  let code_pages = ref 0 in
  List.iter
    (fun (tc : Images.thread_core) ->
      let pn = Layout.page_of_addr tc.tc_pc in
      if not (Images.Pages.mem pn st.table) then begin
        incr code_pages;
        match Binary.text_page dst pn with
        | Some page ->
          st.table <- Images.Pages.add pn (Bytes.unsafe_to_string page) st.table
        | None -> fail "destination binary has no text section"
      end)
    new_cores;
  (* Lower the transformation flag inside the image so restored threads do
     not immediately re-trap. In lazy mode the flag's data page may not be
     in the dump; the restorer also clears the flag in memory, which pulls
     the page from the page server first. *)
  if Images.Pages.mem (Layout.page_of_addr dst.bin_anchors.a_flag) st.table then begin
    store_write_u64 st dst.bin_anchors.a_flag 0L;
    commit st
  end;
  (* Pass-through page memoization: data/heap/TLS pages the rewriter
     copies verbatim. A content-digest hit means the page's encoded
     output is byte-identical to the previous run and need not be
     re-encoded — the skipped bytes feed the incremental recode cost.
     Stack pages are covered by the thread memo; code pages are rebuilt
     from the destination text; the flag page's output differs from its
     input (the flag is lowered), so all three are excluded. *)
  (match memo_ctx with
   | None -> ()
   | Some (m, _) ->
     let flag_pn = Layout.page_of_addr dst.bin_anchors.a_flag in
     Images.Pages.iter
       (fun pn page ->
         if
           (not (is_code_page pn))
           && (not (Layout.in_stack_region (Layout.addr_of_page pn)))
           && pn <> flag_pn
         then begin
           let d = Digest.string page in
           if Plan_cache.memo_page_hit m pn d then begin
             incr memo_page_hits;
             skipped_bytes := !skipped_bytes + Layout.page_size
           end
           else Plan_cache.memo_page_store m pn d
         end)
       st.table);
  let entries =
    Images.pagemap_of_pages
      (List.merge
         (fun (a, _) (b, _) -> Int.compare a b)
         (List.map (fun (pn, _) -> (pn, true)) (Images.Pages.bindings st.table))
         (List.map (fun pn -> (pn, false)) (Images.lazy_pages image)))
  in
  (* VMA list: recompute the code VMAs, keep the rest. *)
  let vmas =
    List.filter
      (fun (vma : Images.vma) -> vma.v_kind <> Dapper_machine.Process.Vma_code)
      image.is_mm.mm_vmas
    @ List.filter_map
        (fun (e : Images.pagemap_entry) ->
          if is_code_page (Layout.page_of_addr e.pm_vaddr) then
            Some
              { Images.v_start = e.pm_vaddr; v_npages = e.pm_npages;
                v_kind = Dapper_machine.Process.Vma_code }
          else None)
        entries
  in
  let image' =
    { Images.is_cores = new_cores;
      is_mm = { image.is_mm with mm_vmas = vmas };
      is_pagemap = entries;
      is_pages = st.table;
      is_files = { Images.fi_app = dst.bin_app; fi_arch = dst_arch } }
  in
  ( image',
    { st_threads = List.length new_cores;
      st_frames = !frames_count;
      st_values = !values_count;
      st_ptrs_translated = !ptrs_translated;
      st_code_pages = !code_pages;
      st_stack_bytes = !stack_bytes;
      st_plan_hits = !plan_hits;
      st_plan_misses = !plan_misses;
      st_index_lookups = Stackmap_index.lookups ix_src + Stackmap_index.lookups ix_dst;
      st_interval_lookups = !interval_lookups;
      st_memo_page_hits = !memo_page_hits;
      st_memo_thread_hits = !memo_thread_hits;
      st_skipped_bytes = !skipped_bytes } )

let rewrite ?memo image ~src ~dst =
  Dapper_error.protect (fun () -> rewrite_exn ?memo image ~src ~dst)
