open Dapper_machine
open Dapper_net
open Dapper
module Link = Dapper_codegen.Link
module Netlink = Dapper_net.Link
module Derr = Dapper_util.Dapper_error
module Fault = Dapper_util.Fault
module Oracle = Dapper_verify.Oracle

let check = Alcotest.check

let config_for c =
  Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm

(* A program whose main sits in a long call-free loop: no equivalence
   point is ever reached, so any pause budget is exhausted. *)
let callfree () =
  let open Dapper_clite.Cl in
  let m = create "callfree" in
  Dapper_clite.Cstd.add m;
  func m "main" [] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 3_000_000) (fun b ->
          set b "acc" (add (v "acc") (band (v "k") (i 7))));
      ret b (rem_ (v "acc") (i 97)));
  Link.compile ~app:"callfree" (finish m)

let test_run_happy_path () =
  let c = Registry_helpers.compute () in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_arm in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  match Session.run (Session.start (config_for c) p) with
  | Error e -> Alcotest.fail (Derr.to_string e)
  | Ok st ->
    let stages = List.map (fun r -> r.Session.sr_stage) (Session.stage_log st) in
    check
      Alcotest.(list string)
      "all six stages in order"
      [ "pause"; "dump"; "recode"; "transfer"; "restore"; "commit" ]
      (List.map Derr.stage_name stages);
    List.iter
      (fun r ->
        check Alcotest.bool
          (Derr.stage_name r.Session.sr_stage ^ " cost non-negative")
          true (r.Session.sr_ms >= 0.0))
      (Session.stage_log st);
    let t = (Session.finish st).Session.r_times in
    check Alcotest.bool "total is the sum of stage records" true
      (abs_float
         (Session.total_ms t
          -. List.fold_left (fun a r -> a +. r.Session.sr_ms) 0.0 (Session.stage_log st))
       < 1e-9);
    let r = Session.finish st in
    (match Process.run_to_completion r.Session.r_process ~fuel:50_000_000 with
     | Process.Exited_run v ->
       check Alcotest.bool "exit equal" true (Int64.equal v expected_code);
       check Alcotest.string "out equal" expected_out
         (Process.stdout_contents p ^ Process.stdout_contents r.Session.r_process)
     | _ -> Alcotest.fail "migrated run did not finish")

let test_pause_budget_exhaustion_resumes_source () =
  let c = callfree () in
  let expected =
    let p = Process.load c.Link.cp_x86 in
    match Process.run_to_completion p ~fuel:100_000_000 with
    | Process.Exited_run v -> v
    | _ -> Alcotest.fail "native callfree failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:10_000);
  let cfg = { (config_for c) with Session.cfg_pause_budget = 200_000 } in
  (match Session.run (Session.start cfg p) with
   | Error Derr.Pause_budget_exhausted -> ()
   | Error e -> Alcotest.fail (Derr.to_string e)
   | Ok _ -> Alcotest.fail "call-free loop should not be pausable");
  check Alcotest.bool "error is transient" true
    (Derr.retriable Derr.Pause_budget_exhausted);
  (* the failed session must leave the source runnable, not parked *)
  check Alcotest.bool "source resumed after failure" true
    (not (Process.all_quiescent p));
  match Process.run_to_completion p ~fuel:100_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "source completes correctly" true (Int64.equal v expected)
  | _ -> Alcotest.fail "source did not finish after failed session"

let test_stage_failure_resumes_source () =
  (* a recode against the wrong application fails mid-pipeline; the
     source must be resumed, not left stuck at its equivalence points *)
  let c = Registry_helpers.compute () in
  let other = Registry_helpers.other_app () in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_x86 in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let cfg =
    Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:other.Link.cp_arm
  in
  (match Session.run (Session.start cfg p) with
   | Error (Derr.Recode_failed _) -> ()
   | Error e -> Alcotest.fail ("unexpected error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "recode against the wrong app must fail");
  check Alcotest.bool "source resumed after recode failure" true
    (not (Process.all_quiescent p));
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit preserved" true (Int64.equal v expected_code);
    check Alcotest.string "output preserved" expected_out (Process.stdout_contents p)
  | _ -> Alcotest.fail "source did not finish after failed session"

let test_stepwise_typed_pipeline () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let s = Session.start (config_for c) p in
  check Alcotest.int "fresh session has an empty log" 0
    (List.length (Session.stage_log s));
  let unwrap = function Ok v -> v | Error e -> Alcotest.fail (Derr.to_string e) in
  let s = unwrap (Session.pause s) in
  check Alcotest.bool "paused source is quiescent" true (Process.all_quiescent p);
  let s = unwrap (Session.dump s) in
  let s = unwrap (Session.recode s) in
  check Alcotest.int "three stages logged" 3 (List.length (Session.stage_log s));
  let s = unwrap (Session.transfer s) in
  let s = unwrap (Session.restore s) in
  let s = unwrap (Session.commit s) in
  let r = Session.finish s in
  let t = r.Session.r_times in
  check Alcotest.bool "every phase has a positive cost" true
    (t.Session.t_checkpoint_ms > 0.0 && t.Session.t_recode_ms > 0.0
     && t.Session.t_scp_ms > 0.0 && t.Session.t_restore_ms > 0.0);
  (* the stepwise drive and the packaged outcome agree *)
  check Alcotest.bool "finish reuses the log" true
    (Session.total_ms t
     = List.fold_left (fun a r -> a +. r.Session.sr_ms) 0.0 (Session.stage_log s))

let test_retry_combinator () =
  let calls = ref 0 and breathers = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then Error Derr.Pause_budget_exhausted else Ok !calls
  in
  (match
     Session.retry ~attempts:5 ~before_retry:(fun () -> incr breathers) flaky
   with
   | Ok 3 -> ()
   | Ok n -> Alcotest.fail (Printf.sprintf "expected success on attempt 3, got %d" n)
   | Error e -> Alcotest.fail (Derr.to_string e));
  check Alcotest.int "two breathers between three attempts" 2 !breathers;
  (* a structural error is not retried *)
  let calls = ref 0 in
  let broken () =
    incr calls;
    Error (Derr.Dump_failed "broken")
  in
  (match Session.retry ~attempts:5 broken with
   | Error (Derr.Dump_failed _) -> ()
   | _ -> Alcotest.fail "structural error must not be retried");
  check Alcotest.int "single attempt for structural error" 1 !calls;
  (* the budget is exhausted eventually *)
  let tired () = Error Derr.Pause_budget_exhausted in
  match Session.retry ~attempts:3 tired with
  | Error Derr.Pause_budget_exhausted -> ()
  | _ -> Alcotest.fail "exhausted retries must surface the last error"

let test_transport_costs () =
  let scp = Transport.scp Netlink.infiniband in
  check Alcotest.bool "scp is eager" true (not (Transport.is_lazy scp));
  let lazy_t = Transport.page_server Netlink.infiniband in
  check Alcotest.bool "page server is lazy" true (Transport.is_lazy lazy_t);
  let bytes = 1 lsl 20 in
  check Alcotest.bool "transfer cost matches the raw link" true
    (Transport.transfer_ns scp bytes = Netlink.transfer_ns Netlink.infiniband bytes);
  let slow = Transport.degraded ~factor:3.0 scp in
  check Alcotest.bool "degraded transport is slower" true
    (Transport.transfer_ns slow bytes = 3.0 *. Transport.transfer_ns scp bytes);
  check Alcotest.bool "degradation composes" true
    (Transport.transfer_ns (Transport.degraded ~factor:2.0 slow) bytes
     = 6.0 *. Transport.transfer_ns scp bytes);
  check Alcotest.bool "a speedup is not a degradation" true
    (match Transport.degraded ~factor:0.5 scp with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check Alcotest.bool "eager transports cannot serve pages" true
    (match
       Transport.fetch_page scp (Transport.fresh_page_stats ()) ~page_bytes:4096
         (fun _ -> None) 0
     with
     | exception Invalid_argument _ -> true
     | _ -> false);
  (* page-server accounting without faults: every served page is counted
     and billed one round trip *)
  let stats = Transport.fresh_page_stats () in
  let serve pn = if pn mod 2 = 0 then Some (Bytes.create 4096) else None in
  List.iter
    (fun pn ->
      match Transport.fetch_page lazy_t stats ~page_bytes:4096 serve pn with
      | Ok page -> check Alcotest.bool "served iff present" (pn mod 2 = 0) (page <> None)
      | Error e -> Alcotest.fail (Derr.to_string e))
    [ 0; 1; 2 ];
  check Alcotest.int "only present pages counted" 2 stats.Transport.srv_pages;
  check (Alcotest.float 0.0) "one round trip per served page"
    (2.0 *. Netlink.page_fetch_ns Netlink.infiniband 4096) stats.Transport.srv_ns

(* ----- two-phase commit ----- *)

(* The native ground truth for the compute program on its source ISA. *)
let native_x86 c =
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v -> (v, Process.stdout_contents p)
  | _ -> Alcotest.fail "native run failed"

(* After a rollback the source must be running and oracle-identical to
   an unmigrated twin: same exit code, same output. *)
let assert_source_unharmed ~what p (expected_code, expected_out) =
  check Alcotest.bool (what ^ ": source resumed") true
    (not (Process.all_quiescent p));
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool (what ^ ": exit preserved") true (Int64.equal v expected_code);
    check Alcotest.string (what ^ ": output preserved") expected_out
      (Process.stdout_contents p)
  | _ -> Alcotest.fail (what ^ ": source did not finish")

let test_injected_destination_failure_rolls_back () =
  let c = Registry_helpers.compute () in
  let expected = native_x86 c in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let cfg =
    { (config_for c) with
      Session.cfg_fault =
        Some (Fault.make ~seed:11 { Fault.calm with Fault.fs_fail_restore = 1.0 }) }
  in
  (match Session.run (Session.start cfg p) with
   | Error (Derr.Restore_failed _) -> ()
   | Error e -> Alcotest.fail ("unexpected error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "a dead destination cannot be restored to");
  assert_source_unharmed ~what:"destination failure" p expected

let test_transfer_fault_rolls_back () =
  let c = Registry_helpers.compute () in
  let expected = native_x86 c in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let cfg =
    { (config_for c) with
      Session.cfg_fault =
        Some (Fault.make ~seed:12 { Fault.calm with Fault.fs_drop = 1.0 }) }
  in
  (match Session.run (Session.start cfg p) with
   | Error (Derr.Transfer_timeout _ as e) ->
     check Alcotest.bool "timeout is retriable" true (Derr.retriable e)
   | Error e -> Alcotest.fail ("unexpected error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "a fully dropped transfer cannot complete");
  assert_source_unharmed ~what:"transfer fault" p expected

(* Abandon a stepwise session after each of pause/dump/recode/transfer:
   rollback at every stage boundary must leave the source running and
   indistinguishable from an unmigrated twin. *)
let test_rollback_at_every_stage_boundary () =
  let c = Registry_helpers.compute () in
  let expected = native_x86 c in
  let unwrap = function Ok v -> v | Error e -> Alcotest.fail (Derr.to_string e) in
  List.iter
    (fun n ->
      let p = Process.load c.Link.cp_x86 in
      ignore (Process.run p ~max_instrs:120_000);
      let s = unwrap (Session.pause (Session.start (config_for c) p)) in
      if n = 1 then Session.rollback s
      else begin
        let s = unwrap (Session.dump s) in
        if n = 2 then Session.rollback s
        else begin
          let s = unwrap (Session.recode s) in
          if n = 3 then Session.rollback s
          else begin
            let s = unwrap (Session.transfer s) in
            Session.rollback s
          end
        end
      end;
      assert_source_unharmed ~what:(Printf.sprintf "boundary %d" n) p expected)
    [ 1; 2; 3; 4 ]

(* The acknowledgement compares the restored destination with the
   paused source. A destination changed between restore and commit must
   not commit, and the source must run on. The flag word is monitor
   state: raised on the paused source, lowered on the destination, so a
   change to it alone still commits. *)
let test_commit_ack_rejects_changed_state () =
  let c = Registry_helpers.compute () in
  let expected = native_x86 c in
  let unwrap = function Ok v -> v | Error e -> Alcotest.fail (Derr.to_string e) in
  let restored () =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:120_000);
    let s = unwrap (Session.pause (Session.start (config_for c) p)) in
    let s = unwrap (Session.recode (unwrap (Session.dump s))) in
    let s = unwrap (Session.restore (unwrap (Session.transfer s))) in
    (p, s, s.Session.s_state.Session.sf_process)
  in
  let rejected ~what change =
    let p, s, q = restored () in
    change q;
    (match Session.commit s with
     | Error (Derr.Commit_failed _) -> ()
     | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Derr.to_string e)
     | Ok _ -> Alcotest.failf "%s: the destination committed" what);
    assert_source_unharmed ~what p expected
  in
  rejected ~what:"changed heap word" (fun q ->
      match
        List.find_opt
          (fun pn -> Process.vma_kind_of_page q pn = Some Process.Vma_heap)
          (Memory.mapped_pages q.Process.mem)
      with
      | None -> Alcotest.fail "the restored fixture maps no heap page"
      | Some pn ->
        let a = Int64.add (Dapper_binary.Layout.addr_of_page pn) 8L in
        Process.poke_data q a (Int64.logxor (Process.peek_data q a) 1L));
  rejected ~what:"changed brk" (fun q -> q.Process.brk <- Int64.add q.Process.brk 4096L);
  let _, s, q = restored () in
  let flag = c.Link.cp_arm.Dapper_binary.Binary.bin_anchors.Dapper_binary.Binary.a_flag in
  Process.poke_data q flag (Int64.lognot (Process.peek_data q flag));
  match Session.commit s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "flag word alone: %s" (Derr.to_string e)

let lazy_config c =
  { (config_for c) with
    Session.cfg_transport = Transport.page_server Netlink.infiniband }

let test_commit_drain () =
  let c = Registry_helpers.compute () in
  let expected_code, expected_out =
    let p = Process.load c.Link.cp_arm in
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let prefix = Process.stdout_contents p in
  let cfg = { (lazy_config c) with Session.cfg_commit_drain = true } in
  match Session.run (Session.start cfg p) with
  | Error e -> Alcotest.fail (Derr.to_string e)
  | Ok st ->
    let r = Session.finish st in
    check Alcotest.bool "pages were drained at commit" true (r.Session.r_drained > 0);
    let stats = Option.get r.Session.r_page_server in
    check Alcotest.bool "drain accounted to the page server" true
      (stats.Transport.srv_pages >= r.Session.r_drained);
    let before = stats.Transport.srv_pages in
    (match Process.run_to_completion r.Session.r_process ~fuel:50_000_000 with
     | Process.Exited_run v ->
       check Alcotest.bool "exit equal" true (Int64.equal v expected_code);
       check Alcotest.string "out equal" expected_out
         (prefix ^ Process.stdout_contents r.Session.r_process)
     | _ -> Alcotest.fail "drained destination did not finish");
    (* fully drained: running the destination needs no more source pages *)
    check Alcotest.int "no post-commit demand paging" before stats.Transport.srv_pages

(* [Session.run] returns what a caller stepping stage by stage reads
   between stages: the outcome's dump stats are the dump stage's, its owed pages
   are the restore's lazy pages less the commit drain, and the committed
   session holds the image the destination was restored from. One corpus
   program migrated eagerly, lazily, and lazily with a drain. At point 3
   mini-sieve's image has two lazy pages and the restore serves one of
   them, the transformation flag's: one page is owed without a drain,
   none after it. *)
let test_run_outcome_matches_stages () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let unwrap = function Ok v -> v | Error e -> Alcotest.fail (Derr.to_string e) in
  let parked () =
    let p = Process.load c.Link.cp_x86 in
    if not (Oracle.advance_to_point p ~budget:30_000_000 3) then
      Alcotest.fail "program exited before point 3";
    p
  in
  List.iter
    (fun (what, cfg, owed, (shows, distinct)) ->
      let r = Session.finish (unwrap (Session.run (Session.start cfg (parked ())))) in
      let s = unwrap (Session.pause (Session.start cfg (parked ()))) in
      let s = unwrap (Session.dump s) in
      let dump = s.Session.s_state.Session.sd_dump in
      let s = unwrap (Session.transfer (unwrap (Session.recode s))) in
      let image = s.Session.s_state.Session.sx_image in
      let s = unwrap (Session.restore s) in
      let lazy_pages = List.length s.Session.s_state.Session.sf_lazy_pages in
      let s = unwrap (Session.commit s) in
      let st = s.Session.s_state in
      check Alcotest.bool (what ^ ": dump stats") true (r.Session.r_dump = dump);
      check Alcotest.int (what ^ ": pages owed after commit")
        (lazy_pages - st.Session.sm_drained) r.Session.r_lazy_left;
      check Alcotest.int (what ^ ": pages owed") owed r.Session.r_lazy_left;
      check Alcotest.bool (what ^ ": " ^ shows) true (distinct r);
      check Alcotest.bool (what ^ ": restored from the transferred image") true
        (st.Session.sm_image == image))
    [ ("eager", config_for c, 0,
       ("nothing lazy", fun r -> r.Session.r_dump.Dapper_criu.Dump.pages_lazy = 0));
      ("lazy", lazy_config c, 1, ("pages owed", fun r -> r.Session.r_lazy_left > 0));
      ( "lazy + drain",
        { (lazy_config c) with Session.cfg_commit_drain = true },
        0,
        ("pages drained", fun r -> r.Session.r_drained > 0) ) ]

(* Two sequential sessions must not share page-server or transfer
   accounting: counters are allocated per session, so the second
   migration's stats reflect only its own work. *)
let test_stats_fresh_per_session () =
  let c = Registry_helpers.compute () in
  let run_lazy () =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:120_000);
    match Session.run (Session.start (lazy_config c) p) with
    | Error e -> Alcotest.fail (Derr.to_string e)
    | Ok st ->
      let r = Session.finish st in
      (match Process.run_to_completion r.Session.r_process ~fuel:50_000_000 with
       | Process.Exited_run _ -> ()
       | _ -> Alcotest.fail "destination did not finish");
      r
  in
  let r1 = run_lazy () in
  let r2 = run_lazy () in
  let s1 = Option.get r1.Session.r_page_server in
  let s2 = Option.get r2.Session.r_page_server in
  check Alcotest.bool "distinct page-server stats records" true (s1 != s2);
  check Alcotest.bool "distinct transfer stats records" true
    (r1.Session.r_transfer != r2.Session.r_transfer);
  check Alcotest.bool "pages were demand-fetched" true (s1.Transport.srv_pages > 0);
  check Alcotest.int "second session starts from zero" s1.Transport.srv_pages
    s2.Transport.srv_pages;
  check Alcotest.int "one transfer attempt each" 1 r1.Session.r_transfer.Transport.tx_attempts;
  check Alcotest.int "no cross-session attempt accumulation" 1
    r2.Session.r_transfer.Transport.tx_attempts

(* ----- forced migration at every equivalence point -----

   The oracle advances a fresh twin to each dynamic equivalence point of
   every example program and drives the full session pipeline there,
   checking the restored process pointwise against the source twin (see
   Dapper_verify.Oracle). One migration per point, both directions. *)

let test_migration_at_every_eqpoint () =
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (src, dst) ->
          match Oracle.run ~src ~dst c with
          | Error f -> Alcotest.fail (Oracle.failure_to_string f)
          | Ok r ->
            check Alcotest.bool (name ^ " walk ran to exit") true r.Oracle.rp_complete;
            check Alcotest.bool (name ^ " has equivalence points") true
              (r.Oracle.rp_points > 0);
            check Alcotest.int
              (name ^ " one migration per point")
              r.Oracle.rp_points r.Oracle.rp_migrations)
        [ (Dapper_isa.Arch.X86_64, Dapper_isa.Arch.Aarch64);
          (Dapper_isa.Arch.Aarch64, Dapper_isa.Arch.X86_64) ])
    (Dapper_verify.Corpus.all ())

(* ----- migration determinism with warm/cold caches -----

   Rewriting the same paused process twice must produce byte-identical
   images and identical cost stats, at a mid-program equivalence point
   of the pointer-heavy example (the worst case for plan caching). *)

let migrate_at_point c point =
  Plan_cache.clear ();
  let p = Process.load c.Link.cp_x86 in
  if not (Oracle.advance_to_point p ~budget:30_000_000 point) then
    Alcotest.failf "program exited before point %d" point;
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  let image', stats =
    Dapper_util.Dapper_error.ok_exn
      (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
  in
  (Dapper_criu.Images.to_files image', stats)

let test_migration_deterministic () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let files1, stats1 = migrate_at_point c 3 in
  let files2, stats2 = migrate_at_point c 3 in
  check Alcotest.int "same file count" (List.length files1) (List.length files2);
  List.iter2
    (fun (n1, b1) (n2, b2) ->
      check Alcotest.string "file name" n1 n2;
      check Alcotest.bool (n1 ^ " bytes identical") true (String.equal b1 b2))
    files1 files2;
  check Alcotest.bool "stats identical (incl. counters)" true (stats1 = stats2)

(* Plan-cache reuse must not skew the per-run stats: a warm rewrite
   (every plan already cached) reports the same work counters as the
   cold one that populated the cache — cached plans still read concrete
   offsets through the indexes at apply time, so index and interval
   counters are neither skipped on hits nor carried over between runs.
   Only the hit/miss split differs. *)
let test_stats_warm_vs_cold_plan_cache () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let rewrite_at point =
    let p = Process.load c.Link.cp_x86 in
    if not (Oracle.advance_to_point p ~budget:30_000_000 point) then
      Alcotest.failf "program exited before point %d" point;
    let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
    snd
      (Dapper_util.Dapper_error.ok_exn
         (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm))
  in
  Plan_cache.clear ();
  let cold = rewrite_at 3 in
  let warm = rewrite_at 3 in
  check Alcotest.bool "cold run builds plans" true (cold.Rewrite.st_plan_misses > 0);
  check Alcotest.int "warm run hits every plan"
    (cold.Rewrite.st_plan_hits + cold.Rewrite.st_plan_misses)
    warm.Rewrite.st_plan_hits;
  check Alcotest.int "warm run misses nothing" 0 warm.Rewrite.st_plan_misses;
  check Alcotest.int "index lookups not skipped on cached plans"
    cold.Rewrite.st_index_lookups warm.Rewrite.st_index_lookups;
  check Alcotest.int "interval probes identical"
    cold.Rewrite.st_interval_lookups warm.Rewrite.st_interval_lookups;
  check Alcotest.bool "work counters identical" true
    (cold.Rewrite.st_frames = warm.Rewrite.st_frames
     && cold.Rewrite.st_values = warm.Rewrite.st_values
     && cold.Rewrite.st_ptrs_translated = warm.Rewrite.st_ptrs_translated
     && cold.Rewrite.st_threads = warm.Rewrite.st_threads)

(* ----- pipelined / parallel / incremental recode fast paths -----

   Byte-equivalence of every fast path against the sequential pipeline
   is enforced by the fastpath oracle (lib/verify/oracle.ml, run under
   @conformance); here we pin the cost-model semantics: overlap only
   helps, byte accounting reconciles, workers are clamped, and a warm
   memo shrinks the recode charge. *)

let run_at_point c cfg point =
  let p = Process.load c.Link.cp_x86 in
  if not (Oracle.advance_to_point p ~budget:30_000_000 point) then
    Alcotest.failf "program exited before point %d" point;
  match Session.run (Session.start cfg p) with
  | Error e -> Alcotest.fail (Derr.to_string e)
  | Ok st -> st

let dest_result st =
  let r = Session.finish st in
  match Process.run_to_completion r.Session.r_process ~fuel:50_000_000 with
  | Process.Exited_run v -> (v, Process.stdout_contents r.Session.r_process)
  | _ -> Alcotest.fail "destination did not complete"

let test_pipelined_overlap () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let seq = run_at_point c (config_for c) 3 in
  let pipe =
    run_at_point c
      { (config_for c) with Session.cfg_pipeline = true; cfg_chunk_bytes = 4096 }
      3
  in
  let st = (Session.finish seq).Session.r_times
  and pt = (Session.finish pipe).Session.r_times in
  (* recode is unchanged; only the transfer charge shrinks (the exposed
     tail of the overlap schedule replaces the full sequential wire) *)
  check (Alcotest.float 1e-9) "recode charge unchanged"
    st.Session.t_recode_ms pt.Session.t_recode_ms;
  check Alcotest.bool "pipelined transfer never worse" true
    (pt.Session.t_scp_ms <= st.Session.t_scp_ms +. 1e-9);
  check Alcotest.bool "pipelined total never worse" true
    (Session.total_ms pt <= Session.total_ms st +. 1e-9);
  (* and the destination behaves identically *)
  let sc, so = dest_result seq and pc, po = dest_result pipe in
  check Alcotest.bool "same exit code" true (Int64.equal sc pc);
  check Alcotest.string "same output" so po

let stage_record st name =
  List.find
    (fun x -> Derr.stage_name x.Session.sr_stage = name)
    (Session.stage_log st)

(* Satellite: the recode stage's charged milliseconds must reconcile
   exactly with [Session.recode_ns] applied to the bytes it recorded in
   its own stage record — no silently defaulted byte count. *)
let test_recode_bytes_reconcile () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let cfg = config_for c in
  let st = run_at_point c cfg 2 in
  let recode = stage_record st "recode" in
  let dump = stage_record st "dump" in
  let transfer = stage_record st "transfer" in
  let r = Session.finish st in
  check Alcotest.bool "recode charged real bytes" true (recode.Session.sr_bytes > 0);
  let expect =
    Session.recode_ns cfg.Session.cfg_recode_node ~bytes:recode.Session.sr_bytes
      r.Session.r_rewrite
    /. 1e6
  in
  check (Alcotest.float 1e-9) "recode ms = recode_ns over its sr_bytes" expect
    recode.Session.sr_ms;
  (* default config: scale 1.0, no memo — dump charges the source image,
     recode the full rewritten image, the wire what it actually shipped *)
  check Alcotest.bool "dump charged real bytes" true (dump.Session.sr_bytes > 0);
  check Alcotest.int "recode charges the rewritten image (nothing skipped)"
    r.Session.r_image_bytes recode.Session.sr_bytes;
  check Alcotest.bool "transfer charged real bytes" true
    (transfer.Session.sr_bytes > 0);
  List.iter
    (fun x ->
      check Alcotest.bool
        (Derr.stage_name x.Session.sr_stage ^ " bytes non-negative")
        true (x.Session.sr_bytes >= 0))
    (Session.stage_log st)

let test_recode_workers_model () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let _, stats = migrate_at_point c 2 in
  let bytes = 10 * 1024 * 1024 in
  let t w = Session.recode_ns Node.xeon ~workers:w ~bytes stats in
  check Alcotest.bool "2 workers beat 1 on a big image" true (t 2 < t 1);
  check Alcotest.bool "4 workers no slower than 2" true (t 4 <= t 2 +. 1e-9);
  check (Alcotest.float 1e-9) "clamped at the node's core count"
    (t Node.xeon.Node.n_cores)
    (t 1024);
  check (Alcotest.float 1e-9) "workers < 1 clamp to sequential" (t 1) (t 0);
  (* perfect-split floor: W workers can never beat work/W *)
  check Alcotest.bool "no superlinear speedup" true
    (t 4 >= t 1 /. 4.0 -. 1e-9)

let test_memo_warm_session () =
  let c = Option.get (Dapper_verify.Corpus.find "mini-sieve") in
  let memo = Plan_cache.create_memo () in
  let cfg = { (config_for c) with Session.cfg_recode_memo = Some memo } in
  let cold = run_at_point c cfg 3 in
  let cr = Session.finish cold in
  let cold_t = cr.Session.r_times in
  let warm = run_at_point c cfg 3 in
  let wr = Session.finish warm in
  let warm_t = wr.Session.r_times in
  let crw = cr.Session.r_rewrite and wrw = wr.Session.r_rewrite in
  check Alcotest.int "cold run hits nothing" 0
    (crw.Rewrite.st_memo_thread_hits + crw.Rewrite.st_memo_page_hits);
  check Alcotest.bool "warm run replays memoized outputs" true
    (wrw.Rewrite.st_memo_thread_hits > 0 && wrw.Rewrite.st_memo_page_hits > 0);
  check Alcotest.bool "warm run skips bytes" true (wrw.Rewrite.st_skipped_bytes > 0);
  check Alcotest.bool "warm recode charge shrinks" true
    (warm_t.Session.t_recode_ms < cold_t.Session.t_recode_ms);
  (* identical destination behavior either way *)
  (match
     ( Process.run_to_completion cr.Session.r_process ~fuel:50_000_000,
       Process.run_to_completion wr.Session.r_process ~fuel:50_000_000 )
   with
   | Process.Exited_run a, Process.Exited_run b ->
     check Alcotest.bool "same exit code" true (Int64.equal a b);
     check Alcotest.string "same output"
       (Process.stdout_contents cr.Session.r_process)
       (Process.stdout_contents wr.Session.r_process)
   | _ -> Alcotest.fail "a destination did not complete")

(* ----- iterative pre-copy ----- *)

(* Abandoning a migration after pre-copy rounds must leave the source
   resumable and oracle-identical to an unmigrated twin — pre-copy reads
   pages and tracks writes, it never perturbs execution. The rollback
   here happens mid-pipeline (after dump), the worst spot: tracking was
   on, rounds ran, the pause is live. *)
let test_precopy_rollback_leaves_source_resumable () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let calls = ref 0 in
  let pre =
    Session.precopy (config_for c) p
      ~advance:(fun _ms ->
        incr calls;
        ignore (Process.run p ~max_instrs:20_000))
      ~max_rounds:4 ~downtime_budget_ms:0.0
  in
  check Alcotest.bool "rounds ran" true (List.length pre.Session.pcs_rounds >= 1);
  check Alcotest.bool "tracking disabled after pre-copy" true
    (Registry_helpers.tracks_no_dirty_pages p.Process.mem);
  (* now a real twin: same prefix, same advance budget *)
  let expected =
    let q = Process.load c.Link.cp_x86 in
    ignore (Process.run q ~max_instrs:120_000);
    ignore (Process.run q ~max_instrs:(!calls * 20_000));
    match Process.run_to_completion q ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents q)
    | _ -> Alcotest.fail "twin run failed"
  in
  let unwrap = function Ok v -> v | Error e -> Alcotest.fail (Derr.to_string e) in
  let s = unwrap (Session.pause (Session.start (config_for c) p)) in
  let s = unwrap (Session.dump s) in
  Session.rollback s;
  check Alcotest.bool "source was resumed" true (not (Process.all_quiescent p));
  (* the twin's stdout includes the pre-pause prefix; the source's
     stdout accumulates across pause/rollback, so compare full runs *)
  match Process.run_to_completion p ~fuel:50_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit preserved after pre-copy + rollback" true
      (Int64.equal v (fst expected));
    check Alcotest.string "output preserved after pre-copy + rollback"
      (snd expected) (Process.stdout_contents p)
  | _ -> Alcotest.fail "source did not finish after rollback"

(* Pre-copy stats must partition the candidate set, and feeding the
   resident set back as [cfg_resident_pages] must shrink the blackout
   transfer charge relative to an identical vanilla session. *)
let test_precopy_resident_discount () =
  let c = Registry_helpers.compute () in
  let scaled_cfg =
    { (config_for c) with Session.cfg_bytes_scale = 1500.0 }
  in
  let load_twin extra =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:120_000);
    if extra > 0 then ignore (Process.run p ~max_instrs:extra);
    p
  in
  let p = load_twin 0 in
  let calls = ref 0 in
  let pre =
    Session.precopy scaled_cfg p
      ~advance:(fun _ms ->
        incr calls;
        ignore (Process.run p ~max_instrs:20_000))
      ~max_rounds:4 ~downtime_budget_ms:0.0
  in
  check Alcotest.bool "some pages settle resident" true
    (pre.Session.pcs_resident <> []);
  check Alcotest.bool "resident and residual disjoint" true
    (List.for_all
       (fun pn -> not (List.mem pn pre.Session.pcs_residual))
       pre.Session.pcs_resident);
  check Alcotest.bool "multiset total covers both sets" true
    (pre.Session.pcs_pages_sent
     >= List.length pre.Session.pcs_resident
        + List.length pre.Session.pcs_residual);
  let run_with cfg q =
    match Session.run (Session.start cfg q) with
    | Ok st -> (Session.finish st).Session.r_times
    | Error e -> Alcotest.fail (Derr.to_string e)
  in
  let hybrid_times =
    run_with
      { scaled_cfg with Session.cfg_resident_pages = pre.Session.pcs_resident }
      p
  in
  let vanilla_times = run_with scaled_cfg (load_twin (!calls * 20_000)) in
  check Alcotest.bool
    (Printf.sprintf "resident discount shrinks transfer: %.3f < %.3f"
       hybrid_times.Session.t_scp_ms vanilla_times.Session.t_scp_ms)
    true
    (hybrid_times.Session.t_scp_ms < vanilla_times.Session.t_scp_ms)

let suites =
  [ ( "session",
      [ Alcotest.test_case "run: happy path + stage log" `Quick test_run_happy_path;
        Alcotest.test_case "pause budget exhaustion resumes source" `Quick
          test_pause_budget_exhaustion_resumes_source;
        Alcotest.test_case "stage failure resumes source" `Quick
          test_stage_failure_resumes_source;
        Alcotest.test_case "stepwise typed pipeline" `Quick test_stepwise_typed_pipeline;
        Alcotest.test_case "retry combinator" `Quick test_retry_combinator;
        Alcotest.test_case "transport costs + accounting" `Quick test_transport_costs;
        Alcotest.test_case "injected destination failure rolls back" `Quick
          test_injected_destination_failure_rolls_back;
        Alcotest.test_case "transfer fault rolls back" `Quick test_transfer_fault_rolls_back;
        Alcotest.test_case "rollback at every stage boundary" `Quick
          test_rollback_at_every_stage_boundary;
        Alcotest.test_case "commit ack rejects changed state" `Quick
          test_commit_ack_rejects_changed_state;
        Alcotest.test_case "commit drains outstanding pages" `Quick test_commit_drain;
        Alcotest.test_case "stats fresh per session" `Quick test_stats_fresh_per_session;
        Alcotest.test_case "run: outcome matches stage by stage" `Quick
          test_run_outcome_matches_stages;
        Alcotest.test_case "forced migration at every equivalence point" `Quick
          test_migration_at_every_eqpoint;
        Alcotest.test_case "migration deterministic (images + cost stats)" `Quick
          test_migration_deterministic;
        Alcotest.test_case "stats identical warm vs cold plan cache" `Quick
          test_stats_warm_vs_cold_plan_cache;
        Alcotest.test_case "pipelined transfer overlaps recode" `Quick
          test_pipelined_overlap;
        Alcotest.test_case "recode bytes reconcile with stage record" `Quick
          test_recode_bytes_reconcile;
        Alcotest.test_case "multi-worker recode cost model" `Quick
          test_recode_workers_model;
        Alcotest.test_case "warm memo shrinks recode charge" `Quick
          test_memo_warm_session;
        Alcotest.test_case "pre-copy rollback leaves source resumable" `Quick
          test_precopy_rollback_leaves_source_resumable;
        Alcotest.test_case "pre-copy resident discount" `Quick
          test_precopy_resident_discount ] ) ]
