open Dapper_isa
open Dapper_binary
open Dapper_machine
open Dapper
module Link = Dapper_codegen.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

let reference () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_arm in
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v -> (c, v, Process.stdout_contents p)
  | _ -> Alcotest.fail "reference run failed"

let pause_and_dump p =
  (match Monitor.request_pause p ~budget:30_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  ok (Dapper_criu.Dump.dump p)

(* Property: migration is transparent at a *random* point, not just the
   handpicked ones in the integration tests. *)
let qcheck_migration_any_point =
  QCheck.Test.make ~name:"migration transparent at random points" ~count:8
    QCheck.(int_range 2_000 900_000)
    (fun warmup ->
      let c, code, out = reference () in
      let p = Process.load c.Link.cp_x86 in
      match Process.run p ~max_instrs:warmup with
      | Process.Exited_run v ->
        (* finished before the point: still must match the reference *)
        Int64.equal v code && String.equal (Process.stdout_contents p) out
      | Process.Progress ->
        let image = pause_and_dump p in
        let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
        let q = ok (Dapper_criu.Restore.restore image' c.Link.cp_arm) in
        (match Process.run_to_completion q ~fuel:50_000_000 with
         | Process.Exited_run v ->
           Int64.equal v code
           && String.equal (Process.stdout_contents p ^ Process.stdout_contents q) out
         | _ -> false)
      | _ -> false)

let test_chained_migration () =
  (* x86 -> arm -> x86: the paper notes the target is decided by the
     executable, so rewriting must compose *)
  let c, code, out = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let image = pause_and_dump p in
  let image_arm, _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  let q = ok (Dapper_criu.Restore.restore image_arm c.Link.cp_arm) in
  ignore (Process.run q ~max_instrs:120_000);
  let image2 = pause_and_dump q in
  let image_x86, _ = ok (Rewrite.rewrite image2 ~src:c.Link.cp_arm ~dst:c.Link.cp_x86) in
  let r = ok (Dapper_criu.Restore.restore image_x86 c.Link.cp_x86) in
  match Process.run_to_completion r ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit equal" true (Int64.equal v code);
    check Alcotest.string "output equal" out
      (Process.stdout_contents p ^ Process.stdout_contents q ^ Process.stdout_contents r)
  | _ -> Alcotest.fail "second migration failed"

let test_rewrite_rejects_mismatched_binaries () =
  let c, _, _ = reference () in
  let other = Registry_helpers.other_app () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  check Alcotest.bool "wrong src arch" true
    (match Rewrite.rewrite image ~src:c.Link.cp_arm ~dst:c.Link.cp_x86 with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false);
  check Alcotest.bool "wrong app" true
    (match Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:other.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false)

(* Tamper with the source stack maps: the rewriter must fail loudly, not
   silently corrupt state. *)
let test_tampered_stackmaps_detected () =
  let c, _, _ = reference () in
  let tamper (bin : Binary.t) =
    Binary.with_stackmaps bin
      (List.map
         (fun (fm : Stackmap.func_map) ->
           { fm with
             fm_eqpoints =
               List.map
                 (fun (ep : Stackmap.eqpoint) ->
                   { ep with
                     ep_live =
                       List.filter
                         (fun (lv : Stackmap.live_value) ->
                           match lv.lv_key with Stackmap.Temp _ -> false | _ -> true)
                         ep.ep_live })
                 fm.fm_eqpoints })
         bin.bin_stackmaps)
  in
  ignore c;
  (* a program whose loop keeps a temporary live across a call, so every
     checkpoint inside the loop must carry a Temp record *)
  let m =
    let open Dapper_clite.Cl in
    let m = create "temps" in
    Dapper_clite.Cstd.add m;
    func m "id" [ ("x", Dapper_ir.Ir.I64) ] (fun b -> ret b (v "x"));
    func m "main" [] (fun b ->
        decl b "s" (i 0);
        for_ b "k" (i 0) (i 100_000) (fun b ->
            set b "s" (add (v "s") (call "id" [ v "k" ])));
        ret b (rem_ (v "s") (i 251)));
    finish m
  in
  let ct = Link.compile ~app:"temps" m in
  let tampered = tamper ct.Link.cp_x86 in
  let p = Process.load ct.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:50_000);
  let image = pause_and_dump p in
  check Alcotest.bool "missing live values detected" true
    (match Rewrite.rewrite image ~src:tampered ~dst:ct.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _) -> true
     | _ -> false)

let test_corrupt_return_address_detected () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  (* smash the innermost frame's saved return address in the image *)
  let tc = List.hd image.Dapper_criu.Images.is_cores in
  let fp = tc.tc_regs.(Arch.fp Arch.X86_64) in
  let addr = Int64.add fp 8L in
  let pn = Layout.page_of_addr addr in
  let page = Bytes.of_string (Option.get (Dapper_criu.Images.read_page image pn)) in
  Bytes.set_int64_le page (Layout.page_offset addr) 0xDEAD_BEEFL;
  let image' = Dapper_criu.Images.write_page image pn (Bytes.to_string page) in
  check Alcotest.bool "unwind fails on corrupt stack" true
    (match Rewrite.rewrite image' ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Recode_failed _ | Dapper_util.Dapper_error.Unwind_failed _) -> true
     | _ -> false)

(* A frame pointer outside the dump is a failed unwind, reported as
   [Unwind_failed] like any other, not an [Images.Image_error] escaping
   [rewrite]. *)
let test_frame_pointer_outside_dump () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  let stray (tc : Dapper_criu.Images.thread_core) =
    let regs = Array.copy tc.tc_regs in
    regs.(Arch.fp Arch.X86_64) <- 0x1000L;
    { tc with tc_regs = regs }
  in
  let image' =
    { image with
      Dapper_criu.Images.is_cores = List.map stray image.Dapper_criu.Images.is_cores }
  in
  check Alcotest.bool "unwind fails" true
    (match Rewrite.rewrite image' ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Unwind_failed _) -> true
     | _ -> false)

(* [st_index_lookups] counts the rewrite's own lookups: twenty rewrites
   run while a second domain looks names up in the same binary's index
   each report what a rewrite run alone does. *)
let test_index_lookups_per_run () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  let image = pause_and_dump p in
  let lookups () =
    let _, st = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
    st.Rewrite.st_index_lookups
  in
  (* alone; this also warms the plan cache, whose table stays shared *)
  let alone = lookups () in
  let stop = Atomic.make false and made = Atomic.make 0 in
  let other =
    Domain.spawn (fun () ->
        let ix = Binary.index c.Link.cp_x86 in
        while not (Atomic.get stop) do
          ignore (Stackmap_index.find_func ix "main");
          Atomic.incr made
        done)
  in
  let runs =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true; Domain.join other)
      (fun () ->
        while Atomic.get made = 0 do Domain.cpu_relax () done;
        List.init 20 (fun _ -> lookups ()))
  in
  check Alcotest.(list int) "each run counts its own lookups"
    (List.init 20 (fun _ -> alone)) runs

let test_rewrite_preserves_heap_and_globals () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  let image = pause_and_dump p in
  let image', _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  (* every dumped non-stack, non-code page must be byte-identical *)
  let is_stack pn =
    let a = Layout.addr_of_page pn in
    Int64.compare a (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
  in
  let is_code pn =
    let a = Layout.addr_of_page pn in
    Int64.compare a Layout.code_base >= 0 && Int64.compare a Layout.data_base < 0
  in
  let flag_pn = Layout.page_of_addr c.Link.cp_x86.bin_anchors.a_flag in
  List.iter
    (fun (e : Dapper_criu.Images.pagemap_entry) ->
      if e.pm_in_dump then
        for k = 0 to e.pm_npages - 1 do
          let pn = Layout.page_of_addr e.pm_vaddr + k in
          if (not (is_stack pn)) && (not (is_code pn)) && pn <> flag_pn then
            match (Dapper_criu.Images.read_page image pn,
                   Dapper_criu.Images.read_page image' pn) with
            | Some a, Some b ->
              check Alcotest.bool (Printf.sprintf "page %d preserved" pn) true (a = b)
            | _ -> Alcotest.fail "page disappeared"
        done)
    image.Dapper_criu.Images.is_pagemap

let test_rewrite_stats_sensible () =
  let c, _, _ = reference () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  let image = pause_and_dump p in
  let _, st = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
  check Alcotest.bool "threads" true (st.Rewrite.st_threads = 1);
  check Alcotest.bool "frames >= 1" true (st.Rewrite.st_frames >= 1);
  check Alcotest.bool "values >= frames" true (st.Rewrite.st_values >= st.Rewrite.st_frames);
  check Alcotest.bool "work positive" true (Rewrite.work_items st > 0)

(* Property: shuffled binaries are behaviour-preserving for any seed. *)
let qcheck_shuffle_any_seed =
  QCheck.Test.make ~name:"shuffle preserves behaviour for any seed" ~count:10
    QCheck.int64
    (fun seed ->
      let c, _, _ = reference () in
      let code, out =
        let p = Process.load c.Link.cp_x86 in
        match Process.run_to_completion p ~fuel:50_000_000 with
        | Process.Exited_run v -> (v, Process.stdout_contents p)
        | _ -> failwith "x86 native failed"
      in
      let shuffled, _ = Shuffle.shuffle_binary (Dapper_util.Rng.create seed) c.Link.cp_x86 in
      let p = Process.load shuffled in
      match Process.run_to_completion p ~fuel:50_000_000 with
      | Process.Exited_run v ->
        Int64.equal v code && String.equal (Process.stdout_contents p) out
      | _ -> false)

(* Property: incremental recode is invisible. Populate an output memo
   with a cold rewrite, mutate a random subset of the dumped data pages
   (never stack, code or the pause flag — those feed the rewriter
   itself), then rewrite the mutated image twice: once from scratch and
   once against the warm memo. The two outputs must be byte-identical —
   page/thread memo hits can only skip work, never change bytes. Corpus:
   the seeded generator behind the fuzz oracle. *)
let qcheck_incremental_rewrite_byte_equal =
  QCheck.Test.make ~name:"incremental recode byte-equals full recode" ~count:6
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (gen_seed, mut_seed) ->
      let c = Dapper_verify.Gen.compile gen_seed in
      let p = Process.load c.Link.cp_x86 in
      match Monitor.request_pause p ~budget:50_000_000 with
      | Error Dapper_util.Dapper_error.Process_exited -> true (* no point reached *)
      | Error e -> failwith (Dapper_util.Dapper_error.to_string e)
      | Ok _ ->
        let image = ok (Dapper_criu.Dump.dump p) in
        let memo = Plan_cache.create_memo () in
        let cold, _ = ok (Rewrite.rewrite ~memo image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
        let plain, _ = ok (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
        let files i = List.sort compare (Dapper_criu.Images.to_files i) in
        if files cold <> files plain then failwith "cold memo run diverged";
        (* mutate a random subset of in-dump data pages *)
        let is_stack pn =
          let a = Layout.addr_of_page pn in
          Int64.compare a (Layout.stack_limit_of_thread (Layout.max_threads - 1)) >= 0
        in
        let is_code pn =
          let a = Layout.addr_of_page pn in
          Int64.compare a Layout.code_base >= 0 && Int64.compare a Layout.data_base < 0
        in
        let flag_pn = Layout.page_of_addr c.Link.cp_x86.bin_anchors.a_flag in
        let candidates =
          List.concat_map
            (fun (e : Dapper_criu.Images.pagemap_entry) ->
              if not e.pm_in_dump then []
              else
                List.filter
                  (fun pn -> (not (is_stack pn)) && (not (is_code pn)) && pn <> flag_pn)
                  (List.init e.pm_npages (fun k -> Layout.page_of_addr e.pm_vaddr + k)))
            image.Dapper_criu.Images.is_pagemap
        in
        let rng = Dapper_util.Rng.create (Int64.of_int ((mut_seed * 2) + 1)) in
        let mutated, n_mutated =
          List.fold_left
            (fun (img, n) pn ->
              if Dapper_util.Rng.float rng < 0.4 then
                match Dapper_criu.Images.read_page img pn with
                | None -> (img, n)
                | Some page ->
                  let b = Bytes.of_string page in
                  let off = Dapper_util.Rng.int rng (Bytes.length b) in
                  Bytes.set b off
                    (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
                  (Dapper_criu.Images.write_page img pn (Bytes.to_string b), n + 1)
              else (img, n))
            (image, 0) candidates
        in
        let warm, wst =
          ok (Rewrite.rewrite ~memo mutated ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
        in
        let full, _ = ok (Rewrite.rewrite mutated ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm) in
        (* untouched stacks always replay from the memo; pass-through
           pages hit unless this draw mutated every candidate *)
        (wst.Rewrite.st_memo_thread_hits > 0
         || wst.Rewrite.st_memo_page_hits > 0
         || n_mutated = List.length candidates)
        && files warm = files full)

(* The output memo holds only for the binary pair that filled it, and
   its environment key reads that pair by content. npb-cg.A, paused
   halfway on x86-64 as in fig5-pipelined, fills a memo against
   aarch64. A destination rebuilt from fresh records of equal stack maps
   must hit it; one whose stack maps alone differ (a reshuffled
   aarch64's) must hit nothing and recode as a rewrite without a memo
   does. *)
let test_memo_env_guard () =
  let c = Dapper_workloads.Registry.(compiled (find "npb-cg.A")) in
  let x86 = c.Link.cp_x86 and arm = c.Link.cp_arm in
  let total =
    let p = Process.load x86 in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run _ -> p.Process.total_instrs
    | _ -> Alcotest.fail "npb-cg.A: native run failed"
  in
  let image =
    let p = Process.load x86 in
    ignore (Process.run p ~max_instrs:(Int64.to_int total / 2));
    pause_and_dump p
  in
  let files i = List.sort compare (Dapper_criu.Images.to_files i) in
  let memo = Plan_cache.create_memo () in
  let cold, _ = ok (Rewrite.rewrite ~memo image ~src:x86 ~dst:arm) in
  let fresh : Stackmap.func_map list =
    Marshal.from_string (Marshal.to_string arm.bin_stackmaps [ Marshal.No_sharing ]) 0
  in
  let copy = Binary.with_stackmaps arm fresh in
  check Alcotest.bool "fresh records" false (copy.bin_stackmaps == arm.bin_stackmaps);
  let warm, wst = ok (Rewrite.rewrite ~memo image ~src:x86 ~dst:copy) in
  check Alcotest.int "equal maps: threads hit" wst.Rewrite.st_threads
    wst.Rewrite.st_memo_thread_hits;
  check Alcotest.bool "equal maps: pages hit" true (wst.Rewrite.st_memo_page_hits > 0);
  check Alcotest.bool "equal maps: same files" true (files warm = files cold);
  let reshuffled =
    (fst (Shuffle.shuffle_binary (Dapper_util.Rng.create 29L) arm)).bin_stackmaps
  in
  check Alcotest.bool "reshuffled maps differ" true (reshuffled <> arm.bin_stackmaps);
  let other = Binary.with_stackmaps arm reshuffled in
  let moved, mst = ok (Rewrite.rewrite ~memo image ~src:x86 ~dst:other) in
  let plain, _ = ok (Rewrite.rewrite image ~src:x86 ~dst:other) in
  check Alcotest.int "other maps: no thread hit" 0 mst.Rewrite.st_memo_thread_hits;
  check Alcotest.int "other maps: no page hit" 0 mst.Rewrite.st_memo_page_hits;
  check Alcotest.bool "other maps: files as without a memo" true
    (files moved = files plain)

(* Recoded-image pins: the four pingpong programs, paused on each ISA and
   dumped eagerly and lazily, are recoded to the other ISA. Per case one
   summary line (the dump's [Dump.stats_of] and [Images.total_bytes],
   the recoded image's size and work items, and the memo counters of a
   second rewrite through one memo, which feed the modeled recode cost)
   and the MD5 of every file [Images.to_files] makes of the recoded
   image. Any change to how pages are held or copied must leave them
   all as they are. *)
let recoded_image_lines () =
  List.concat_map
    (fun prog ->
      let c = Dapper_workloads.Registry.(compiled (find prog)) in
      List.concat_map
        (fun src_arch ->
          let src = Link.binary_for c src_arch in
          let dst_arch = if src_arch = Arch.X86_64 then Arch.Aarch64 else Arch.X86_64 in
          let dst = Link.binary_for c dst_arch in
          let p = Process.load src in
          ignore (Process.run p ~max_instrs:200_000);
          (match Monitor.request_pause p ~budget:30_000_000 with
           | Ok _ -> ()
           | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
          List.concat_map
            (fun lazy_pages ->
              let image = ok (Dapper_criu.Dump.dump ~lazy_pages p) in
              let ds = Dapper_criu.Dump.stats_of image in
              let image', st = ok (Rewrite.rewrite image ~src ~dst) in
              let files = Dapper_criu.Images.to_files image' in
              let memo = Plan_cache.create_memo () in
              ignore (ok (Rewrite.rewrite ~memo image ~src ~dst));
              let warm, wst = ok (Rewrite.rewrite ~memo image ~src ~dst) in
              if Dapper_criu.Images.to_files warm <> files then
                Alcotest.failf "%s: memo rewrite differs" prog;
              let case =
                Printf.sprintf "%s %s %s->%s" prog
                  (if lazy_pages then "lazy" else "eager")
                  (Arch.name src_arch) (Arch.name dst_arch)
              in
              Printf.sprintf
                "%s: dump %d/%d/%d total %d; recoded %d work %d; memo %d/%d/%d" case
                ds.Dapper_criu.Dump.pages_dumped ds.Dapper_criu.Dump.pages_lazy
                (Dapper_criu.Images.total_bytes image)
                (Dapper_criu.Images.total_bytes image)
                (Dapper_criu.Images.total_bytes image')
                (Rewrite.work_items st) wst.Rewrite.st_memo_thread_hits
                wst.Rewrite.st_memo_page_hits wst.Rewrite.st_skipped_bytes
              :: List.map
                   (fun (name, bytes) ->
                     Printf.sprintf "%s: %s %s" case name
                       (Digest.to_hex (Digest.string bytes)))
                   files)
            [ false; true ])
        Arch.all)
    [ "npb-cg.A"; "nginx"; "blackscholes"; "streamcluster" ]

let recoded_image_pins =
  [ "npb-cg.A eager x86-64->aarch64: dump 17/0/70161 total 70161; recoded 70146 work 156; memo 1/7/61440";
    "npb-cg.A eager x86-64->aarch64: core-0.img b4ba92689d1ac44edc8ac1b054f8fd15";
    "npb-cg.A eager x86-64->aarch64: mm.img 85633eab22e947dd67d43b1ad8ddf9f9";
    "npb-cg.A eager x86-64->aarch64: pagemap.img 6299d12dc58c37f881c7941f7ca93fbe";
    "npb-cg.A eager x86-64->aarch64: pages-1.img 57802ce14f11935558bd18fb309a8770";
    "npb-cg.A eager x86-64->aarch64: files.img a7dc72daef8c2b78caf75a38e9c25f13";
    "npb-cg.A lazy x86-64->aarch64: dump 9/8/37393 total 37393; recoded 37378 work 156; memo 1/0/32768";
    "npb-cg.A lazy x86-64->aarch64: core-0.img b4ba92689d1ac44edc8ac1b054f8fd15";
    "npb-cg.A lazy x86-64->aarch64: mm.img 85633eab22e947dd67d43b1ad8ddf9f9";
    "npb-cg.A lazy x86-64->aarch64: pagemap.img 3670c118dd57fdb5dc5a99f55801fa72";
    "npb-cg.A lazy x86-64->aarch64: pages-1.img 1d2d02e4f094df0952fb5eaedcd1b415";
    "npb-cg.A lazy x86-64->aarch64: files.img a7dc72daef8c2b78caf75a38e9c25f13";
    "npb-cg.A eager aarch64->x86-64: dump 17/0/70163 total 70163; recoded 70144 work 156; memo 1/7/61440";
    "npb-cg.A eager aarch64->x86-64: core-0.img 1a50133afc632887b63dae8d09a648ca";
    "npb-cg.A eager aarch64->x86-64: mm.img 85633eab22e947dd67d43b1ad8ddf9f9";
    "npb-cg.A eager aarch64->x86-64: pagemap.img 6299d12dc58c37f881c7941f7ca93fbe";
    "npb-cg.A eager aarch64->x86-64: pages-1.img 82bd0687e474d1b05fe3dd4d46bc75a7";
    "npb-cg.A eager aarch64->x86-64: files.img 55effc288bcf48709d8d3aaac91280fb";
    "npb-cg.A lazy aarch64->x86-64: dump 9/8/37395 total 37395; recoded 37376 work 156; memo 1/0/32768";
    "npb-cg.A lazy aarch64->x86-64: core-0.img 1a50133afc632887b63dae8d09a648ca";
    "npb-cg.A lazy aarch64->x86-64: mm.img 85633eab22e947dd67d43b1ad8ddf9f9";
    "npb-cg.A lazy aarch64->x86-64: pagemap.img 3670c118dd57fdb5dc5a99f55801fa72";
    "npb-cg.A lazy aarch64->x86-64: pages-1.img 809bef14a7fab0effc3c008c84d64e70";
    "npb-cg.A lazy aarch64->x86-64: files.img 55effc288bcf48709d8d3aaac91280fb";
    "nginx eager x86-64->aarch64: dump 12/0/49661 total 49661; recoded 49663 work 152; memo 1/2/40960";
    "nginx eager x86-64->aarch64: core-0.img 769e377c62850d43e572ec8557550088";
    "nginx eager x86-64->aarch64: mm.img cab095c03b64cca2e7d3ff0ca17893fe";
    "nginx eager x86-64->aarch64: pagemap.img e00c9faf6f1bdb89b53188f55511a72f";
    "nginx eager x86-64->aarch64: pages-1.img 9d00b345cdd3ff08ac15984db7769e22";
    "nginx eager x86-64->aarch64: files.img 3215b2dbad702cb9a6817d3153738dec";
    "nginx lazy x86-64->aarch64: dump 9/3/37373 total 37373; recoded 37375 work 152; memo 1/0/32768";
    "nginx lazy x86-64->aarch64: core-0.img 769e377c62850d43e572ec8557550088";
    "nginx lazy x86-64->aarch64: mm.img cab095c03b64cca2e7d3ff0ca17893fe";
    "nginx lazy x86-64->aarch64: pagemap.img 886afb8d3264290c2b7eb6d721ad243a";
    "nginx lazy x86-64->aarch64: pages-1.img b3ee7d199cda86776d16f0a28f54d893";
    "nginx lazy x86-64->aarch64: files.img 3215b2dbad702cb9a6817d3153738dec";
    "nginx eager aarch64->x86-64: dump 12/0/49663 total 49663; recoded 49661 work 141; memo 1/2/40960";
    "nginx eager aarch64->x86-64: core-0.img 1c41af52f3d10b603f73f04953b0cc8a";
    "nginx eager aarch64->x86-64: mm.img 66f7c864901fd557e7ea76d14b29f43c";
    "nginx eager aarch64->x86-64: pagemap.img 1da26254418b951e343f507d4dcad6ff";
    "nginx eager aarch64->x86-64: pages-1.img e15c96ab454b0adf7185f3e306e09f47";
    "nginx eager aarch64->x86-64: files.img d01966ef32a571d9fd693bac3ea437ae";
    "nginx lazy aarch64->x86-64: dump 9/3/37375 total 37375; recoded 37373 work 141; memo 1/0/32768";
    "nginx lazy aarch64->x86-64: core-0.img 1c41af52f3d10b603f73f04953b0cc8a";
    "nginx lazy aarch64->x86-64: mm.img 66f7c864901fd557e7ea76d14b29f43c";
    "nginx lazy aarch64->x86-64: pagemap.img 5fbf829e7aa289aef39c7ccb4ae3c1e3";
    "nginx lazy aarch64->x86-64: pages-1.img aa11a9363b2579bb785fa2c72d674f48";
    "nginx lazy aarch64->x86-64: files.img d01966ef32a571d9fd693bac3ea437ae";
    "blackscholes eager x86-64->aarch64: dump 49/0/202616 total 202616; recoded 202622 work 744; memo 5/6/188416";
    "blackscholes eager x86-64->aarch64: core-0.img d083b9402e9c976a8bb0c79110a28512";
    "blackscholes eager x86-64->aarch64: core-1.img 9f7f38396461176158ed62e273c1512f";
    "blackscholes eager x86-64->aarch64: core-2.img d9bbf177c913b104fc771853df2fff79";
    "blackscholes eager x86-64->aarch64: core-3.img 9dadd5057ae988394e7d71f6651eeb1f";
    "blackscholes eager x86-64->aarch64: core-4.img f2d43a347d4896cbf53396e54a933eb7";
    "blackscholes eager x86-64->aarch64: mm.img a5af032d67427243059206f00857961a";
    "blackscholes eager x86-64->aarch64: pagemap.img e7801ca5708f0a7e699b3bbafff19d84";
    "blackscholes eager x86-64->aarch64: pages-1.img b2308a9951c76d2ad1a9cc305826f860";
    "blackscholes eager x86-64->aarch64: files.img cf90d7009e26b962e9d979165c630b1d";
    "blackscholes lazy x86-64->aarch64: dump 42/7/173944 total 173944; recoded 173950 work 744; memo 5/0/163840";
    "blackscholes lazy x86-64->aarch64: core-0.img d083b9402e9c976a8bb0c79110a28512";
    "blackscholes lazy x86-64->aarch64: core-1.img 9f7f38396461176158ed62e273c1512f";
    "blackscholes lazy x86-64->aarch64: core-2.img d9bbf177c913b104fc771853df2fff79";
    "blackscholes lazy x86-64->aarch64: core-3.img 9dadd5057ae988394e7d71f6651eeb1f";
    "blackscholes lazy x86-64->aarch64: core-4.img f2d43a347d4896cbf53396e54a933eb7";
    "blackscholes lazy x86-64->aarch64: mm.img a5af032d67427243059206f00857961a";
    "blackscholes lazy x86-64->aarch64: pagemap.img 1aded03d991ed4876fbcdbc8cc170a44";
    "blackscholes lazy x86-64->aarch64: pages-1.img 31c804abb1af556c18c0bc25784433cf";
    "blackscholes lazy x86-64->aarch64: files.img cf90d7009e26b962e9d979165c630b1d";
    "blackscholes eager aarch64->x86-64: dump 49/0/202622 total 202622; recoded 202616 work 753; memo 5/6/188416";
    "blackscholes eager aarch64->x86-64: core-0.img 2ee7ce08e6045fb0c353fc2865c4d65c";
    "blackscholes eager aarch64->x86-64: core-1.img 6445bb497436175312e19a1aba3619a2";
    "blackscholes eager aarch64->x86-64: core-2.img e76ab983fb99a367907c371283479c8e";
    "blackscholes eager aarch64->x86-64: core-3.img a24c40cb98439a5efc2b9acf04f64096";
    "blackscholes eager aarch64->x86-64: core-4.img 257643c929e42e887f9fa7019dbc13bd";
    "blackscholes eager aarch64->x86-64: mm.img a5af032d67427243059206f00857961a";
    "blackscholes eager aarch64->x86-64: pagemap.img e7801ca5708f0a7e699b3bbafff19d84";
    "blackscholes eager aarch64->x86-64: pages-1.img cde9a1f951f50657e2e44250f4ad56e5";
    "blackscholes eager aarch64->x86-64: files.img bd937b743fe3b6a5acaab8c7edbf1108";
    "blackscholes lazy aarch64->x86-64: dump 42/7/173950 total 173950; recoded 173944 work 753; memo 5/0/163840";
    "blackscholes lazy aarch64->x86-64: core-0.img 2ee7ce08e6045fb0c353fc2865c4d65c";
    "blackscholes lazy aarch64->x86-64: core-1.img 6445bb497436175312e19a1aba3619a2";
    "blackscholes lazy aarch64->x86-64: core-2.img e76ab983fb99a367907c371283479c8e";
    "blackscholes lazy aarch64->x86-64: core-3.img a24c40cb98439a5efc2b9acf04f64096";
    "blackscholes lazy aarch64->x86-64: core-4.img 257643c929e42e887f9fa7019dbc13bd";
    "blackscholes lazy aarch64->x86-64: mm.img a5af032d67427243059206f00857961a";
    "blackscholes lazy aarch64->x86-64: pagemap.img 1aded03d991ed4876fbcdbc8cc170a44";
    "blackscholes lazy aarch64->x86-64: pages-1.img 614ed83e9eea8b3d2d589e76da3e6d5f";
    "blackscholes lazy aarch64->x86-64: files.img bd937b743fe3b6a5acaab8c7edbf1108";
    "streamcluster eager x86-64->aarch64: dump 50/0/206730 total 206730; recoded 206719 work 721; memo 5/7/192512";
    "streamcluster eager x86-64->aarch64: core-0.img 9c5f2c4d71206b09faf953894e12ede3";
    "streamcluster eager x86-64->aarch64: core-1.img 6e4cf234173202422a4114b3ce97f242";
    "streamcluster eager x86-64->aarch64: core-2.img 10c8ddf3d6f3ebe684de7ebd4604cc72";
    "streamcluster eager x86-64->aarch64: core-3.img c62d443b6445cd86dabd8fecaa0de5dd";
    "streamcluster eager x86-64->aarch64: core-4.img 805f0d20456c6726fde3523755117a34";
    "streamcluster eager x86-64->aarch64: mm.img ffac7a22d9a908c6897fd2822affea98";
    "streamcluster eager x86-64->aarch64: pagemap.img 624d16e210fb7c27fc29ec69cfbd4b8a";
    "streamcluster eager x86-64->aarch64: pages-1.img fc43039113a78f6b32678f22baad3c70";
    "streamcluster eager x86-64->aarch64: files.img ed473643ef9029ea7cac25043f5c2029";
    "streamcluster lazy x86-64->aarch64: dump 42/8/173962 total 173962; recoded 173951 work 721; memo 5/0/163840";
    "streamcluster lazy x86-64->aarch64: core-0.img 9c5f2c4d71206b09faf953894e12ede3";
    "streamcluster lazy x86-64->aarch64: core-1.img 6e4cf234173202422a4114b3ce97f242";
    "streamcluster lazy x86-64->aarch64: core-2.img 10c8ddf3d6f3ebe684de7ebd4604cc72";
    "streamcluster lazy x86-64->aarch64: core-3.img c62d443b6445cd86dabd8fecaa0de5dd";
    "streamcluster lazy x86-64->aarch64: core-4.img 805f0d20456c6726fde3523755117a34";
    "streamcluster lazy x86-64->aarch64: mm.img ffac7a22d9a908c6897fd2822affea98";
    "streamcluster lazy x86-64->aarch64: pagemap.img 31c05f079266dd11a7e7d9f0d72d9b10";
    "streamcluster lazy x86-64->aarch64: pages-1.img 28070bb716026784463329f40359fa7a";
    "streamcluster lazy x86-64->aarch64: files.img ed473643ef9029ea7cac25043f5c2029";
    "streamcluster eager aarch64->x86-64: dump 50/0/206736 total 206736; recoded 206713 work 721; memo 5/7/192512";
    "streamcluster eager aarch64->x86-64: core-0.img d802a70f7d4e044b5391604091ddffc1";
    "streamcluster eager aarch64->x86-64: core-1.img e8115d47f0b459dce9816cfbb3ea1f59";
    "streamcluster eager aarch64->x86-64: core-2.img 498e4ebfd285ccc46857a6cc891e38fd";
    "streamcluster eager aarch64->x86-64: core-3.img 6842bb214a57f6b2e0c6507af3e9c064";
    "streamcluster eager aarch64->x86-64: core-4.img 3cb6cb62c42fe3e16ab3557dc1f8daf0";
    "streamcluster eager aarch64->x86-64: mm.img ffac7a22d9a908c6897fd2822affea98";
    "streamcluster eager aarch64->x86-64: pagemap.img 624d16e210fb7c27fc29ec69cfbd4b8a";
    "streamcluster eager aarch64->x86-64: pages-1.img b98d50e9dbb04340ff03f5c4670ec818";
    "streamcluster eager aarch64->x86-64: files.img ceebed057ba0151365e3ea1e7e4ae117";
    "streamcluster lazy aarch64->x86-64: dump 42/8/173968 total 173968; recoded 173945 work 721; memo 5/0/163840";
    "streamcluster lazy aarch64->x86-64: core-0.img d802a70f7d4e044b5391604091ddffc1";
    "streamcluster lazy aarch64->x86-64: core-1.img e8115d47f0b459dce9816cfbb3ea1f59";
    "streamcluster lazy aarch64->x86-64: core-2.img 498e4ebfd285ccc46857a6cc891e38fd";
    "streamcluster lazy aarch64->x86-64: core-3.img 6842bb214a57f6b2e0c6507af3e9c064";
    "streamcluster lazy aarch64->x86-64: core-4.img 3cb6cb62c42fe3e16ab3557dc1f8daf0";
    "streamcluster lazy aarch64->x86-64: mm.img ffac7a22d9a908c6897fd2822affea98";
    "streamcluster lazy aarch64->x86-64: pagemap.img 31c05f079266dd11a7e7d9f0d72d9b10";
    "streamcluster lazy aarch64->x86-64: pages-1.img 7d78d39a7f609b3bacf236ac1de47e7d";
    "streamcluster lazy aarch64->x86-64: files.img ceebed057ba0151365e3ea1e7e4ae117" ]

let test_recoded_image_pins () =
  check Alcotest.(list string) "recoded images" recoded_image_pins (recoded_image_lines ())

let suites =
  [ ( "rewrite",
      [ QCheck_alcotest.to_alcotest qcheck_migration_any_point;
        Alcotest.test_case "chained x86->arm->x86" `Quick test_chained_migration;
        Alcotest.test_case "mismatched binaries rejected" `Quick
          test_rewrite_rejects_mismatched_binaries;
        Alcotest.test_case "tampered stackmaps detected" `Quick
          test_tampered_stackmaps_detected;
        Alcotest.test_case "corrupt return address detected" `Quick
          test_corrupt_return_address_detected;
        Alcotest.test_case "frame pointer outside the dump" `Quick
          test_frame_pointer_outside_dump;
        Alcotest.test_case "index lookups counted per run" `Quick
          test_index_lookups_per_run;
        Alcotest.test_case "heap/globals preserved" `Quick
          test_rewrite_preserves_heap_and_globals;
        Alcotest.test_case "stats sensible" `Quick test_rewrite_stats_sensible;
        QCheck_alcotest.to_alcotest qcheck_shuffle_any_seed;
        QCheck_alcotest.to_alcotest qcheck_incremental_rewrite_byte_equal;
        Alcotest.test_case "memo empties when the binary pair changes" `Quick
          test_memo_env_guard;
        Alcotest.test_case "recoded image pins" `Quick test_recoded_image_pins ] ) ]
