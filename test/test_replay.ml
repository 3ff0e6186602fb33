(* The record/replay plane: record→replay matches every recorded field
   on the same ISA and validates cleanly across ISAs, recording never
   perturbs the execution it observes, a tampered log is caught at the
   anchor it names, and shadow replay localizes an injected rewriter
   corruption to its first diverging anchor. *)

open Dapper_isa
open Dapper_machine
module Link = Dapper_codegen.Link
module Log = Dapper_replay.Log
module Replayer = Dapper_replay.Replayer
module Oracle = Dapper_verify.Oracle
module Corpus = Dapper_verify.Corpus
module Gen = Dapper_verify.Gen

let check = Alcotest.check

let record_exn bin =
  match Replayer.record bin with
  | Ok log -> log
  | Error e -> Alcotest.failf "record failed: %s" e

let replay_exn ~log bin =
  let o = Replayer.replay ~log bin in
  match o.Replayer.ro_divergence with
  | None -> o
  | Some d -> Alcotest.failf "replay diverged: %s" (Replayer.divergence_to_string d)

(* The recorded final state's digests, as [Process.observe] reports
   them. *)
let recorded_final (log : Log.t) =
  let eq = log.Log.lg_final in
  { Process.sn_data = eq.Log.eq_data; sn_heap = eq.Log.eq_heap;
    sn_tls = eq.Log.eq_tls; sn_brk = eq.Log.eq_brk;
    sn_threads = eq.Log.eq_threads; sn_stdout = log.Log.lg_stdout;
    sn_exit = Some log.Log.lg_exit }

(* One full round-trip battery for a compiled program: record on [src],
   replay same-ISA (every recorded field must match) and cross-ISA
   (syscalls, anchors, exit and the final state must match), and check
   the recording against an untapped live run. *)
let round_trip name c =
  List.iter
    (fun src ->
      let src_bin = Link.binary_for c src in
      let dst =
        match src with Arch.X86_64 -> Arch.Aarch64 | Arch.Aarch64 -> Arch.X86_64
      in
      let dst_bin = Link.binary_for c dst in
      let log = record_exn src_bin in
      (* recording is deterministic: same binary, same log, to the byte *)
      check Alcotest.bool
        (name ^ ": re-recording is byte-identical")
        true
        (Log.fingerprint (record_exn src_bin) = Log.fingerprint log);
      (* recording never perturbs the run: an untapped live execution
         produces the same stdout and exit code *)
      let live = Process.load src_bin in
      (match Process.run_to_completion live ~fuel:50_000_000 with
      | Process.Exited_run _ -> ()
      | _ -> Alcotest.failf "%s: live run did not exit" name);
      check Alcotest.string
        (name ^ ": recorded stdout = live stdout")
        (Process.stdout_contents live) log.Log.lg_stdout;
      check Alcotest.bool
        (name ^ ": recorded exit = live exit")
        true
        (Some log.Log.lg_exit = live.Process.exit_code);
      check Alcotest.bool
        (name ^ ": recorded final state = live final state")
        true
        (Process.state_equal (Process.observe live) (recorded_final log));
      (* same-ISA replay: validated end to end, every recorded field *)
      let same = replay_exn ~log src_bin in
      check Alcotest.int
        (name ^ ": same-ISA replay walks every anchor")
        (Log.points log) same.Replayer.ro_points;
      check Alcotest.bool
        (name ^ ": same-ISA scheduler slices checked")
        true
        (same.Replayer.ro_sched_checked > 0);
      (* cross-ISA replay: syscalls validated, schedule skipped, stdout,
         exit and the final observable state (modulo the masked flag
         word) equal to the recording's, which equal the live run's *)
      let cross = replay_exn ~log dst_bin in
      check Alcotest.int
        (name ^ ": cross-ISA replay walks every anchor")
        (Log.points log) cross.Replayer.ro_points;
      check Alcotest.int
        (name ^ ": cross-ISA scheduler slices skipped")
        0 cross.Replayer.ro_sched_checked)
    [ Arch.X86_64; Arch.Aarch64 ]

let test_corpus_round_trips () =
  List.iter (fun (name, c) -> round_trip name c) (Corpus.all ())

(* Each seed names one deterministic generated program (compilation is
   memoized). Recording walks every dynamic equivalence point, so this
   is the full-depth determinism property the capped oracle sweep
   cannot afford per point. *)
let qcheck_generated_round_trip =
  QCheck.Test.make ~count:25
    ~name:"replay: generated programs record/replay round-trip on both ISAs"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 60))
    (fun seed ->
      let c = Gen.compile seed in
      let log = record_exn c.Link.cp_x86 in
      let matched bin =
        let o = Replayer.replay ~log bin in
        o.Replayer.ro_divergence = None && o.Replayer.ro_points = Log.points log
      in
      matched c.Link.cp_x86 && matched c.Link.cp_arm)

(* The log survives its wire format: encode→decode is the identity on
   the fingerprint, and a flipped body byte is rejected by checksum. *)
let test_log_wire_round_trip () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  let log = record_exn c.Link.cp_x86 in
  let bytes = Log.encode log in
  let back =
    match Log.decode bytes with
    | log' -> log'
    | exception Log.Log_error msg -> Alcotest.failf "decode failed: %s" msg
  in
  check Alcotest.bool "decode(encode log) fingerprints equal" true
    (Log.fingerprint back = Log.fingerprint log);
  let corrupt = Bytes.of_string bytes in
  (* the midpoint lies inside the entry-stream body (the dominant
     field), which is exactly what the checksum covers *)
  let mid = Bytes.length corrupt / 2 in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x01));
  check Alcotest.bool "corrupted image rejected" true
    (match Log.decode (Bytes.to_string corrupt) with
     | exception Log.Log_error _ -> true
     | _ -> false)

(* The full stdout lies outside the entry-stream checksum, so decode
   checks it against the prefix digests the anchors record: one flipped
   byte of it fails decode instead of a replay that blames the process. *)
let test_log_stdout_checked () =
  let c = Option.get (Corpus.find "mini-sieve") in
  let log = record_exn c.Link.cp_x86 in
  let bytes = Log.encode log in
  let out = log.Log.lg_stdout in
  (* field 9, the stdout, is the encoding's last field *)
  check Alcotest.bool "the encoding ends with the stdout" true
    (out <> "" && String.ends_with ~suffix:out bytes);
  let corrupt = Bytes.of_string bytes in
  let at = Bytes.length corrupt - (String.length out / 2) - 1 in
  Bytes.set corrupt at (Char.chr (Char.code (Bytes.get corrupt at) lxor 0x01));
  check Alcotest.bool "flipped stdout byte rejected" true
    (match Log.decode (Bytes.to_string corrupt) with
     | exception Log.Log_error _ -> true
     | _ -> false)

(* The recorded mini-quickstart log on each ISA, pinned as absolute
   values: the log carries every anchor's per-page digests
   ([Process.observe_pages]), so a change to any digest on that path
   moves these fingerprints even where two recordings still agree. *)
let test_log_fingerprint_pins () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  List.iter
    (fun (arch, bin, want) ->
      check Alcotest.string
        (Printf.sprintf "mini-quickstart %s log fingerprint" (Arch.name arch))
        want
        (Printf.sprintf "%016Lx" (Log.fingerprint (record_exn bin))))
    [ (Arch.X86_64, c.Link.cp_x86, "955eacbb58eb3c96");
      (Arch.Aarch64, c.Link.cp_arm, "9a8bcda20b30510f") ]

(* [log] with anchor [k] replaced by [f] of it. *)
let with_anchor (log : Log.t) k f =
  { log with
    Log.lg_entries =
      List.map
        (function
          | Log.Eqpoint eq when eq.Log.eq_index = k -> Log.Eqpoint (f eq)
          | e -> e)
        log.Log.lg_entries }

let diverged_at what ~point (o : Replayer.outcome) =
  match o.Replayer.ro_divergence with
  | None -> Alcotest.failf "%s: replay matched" what
  | Some d ->
    check Alcotest.int (what ^ ": diverging anchor") point d.Replayer.dv_point;
    d

(* A same-ISA replay from load compares every field the recorder wrote:
   an altered frame, page digest or app name diverges at the anchor it
   belongs to. A cross-ISA replay compares only what transfers across
   ISAs, so it still matches. *)
let test_same_isa_replay_exact () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  let log = record_exn c.Link.cp_x86 in
  let k = Log.points log / 2 in
  let frame =
    with_anchor log k (fun eq ->
        match eq.Log.eq_stacks with
        | tf :: rest ->
          let bump f = { f with Log.fi_ep = f.Log.fi_ep + 1 } in
          let tf = { tf with Log.tf_frames = List.map bump tf.Log.tf_frames } in
          { eq with Log.eq_stacks = tf :: rest }
        | [] -> Alcotest.fail "anchor without frames")
  in
  let pd = List.hd (Log.point log k).Log.eq_pages in
  let flip p =
    if p = pd then { p with Log.pd_digest = Int64.lognot p.Log.pd_digest } else p
  in
  let page =
    with_anchor log k (fun eq -> { eq with Log.eq_pages = List.map flip eq.Log.eq_pages })
  in
  let x86 log = Replayer.replay ~log c.Link.cp_x86 in
  ignore (diverged_at "altered frame" ~point:k (x86 frame));
  let d = diverged_at "altered page digest" ~point:k (x86 page) in
  check Alcotest.bool "the altered page is named" true
    (List.mem (pd.Log.pd_kind, pd.Log.pd_page) d.Replayer.dv_pages);
  let renamed = { log with Log.lg_app = "mini-other" } in
  ignore (diverged_at "altered app name" ~point:0 (x86 renamed));
  List.iter (fun log -> ignore (replay_exn ~log c.Link.cp_arm)) [ frame; page ];
  (* a log whose full stdout is shorter than its anchors claim is a
     divergence on either ISA, not an exception *)
  let truncated = { log with Log.lg_stdout = "" } in
  List.iter
    (fun bin ->
      match (Replayer.replay ~log:truncated bin).Replayer.ro_divergence with
      | Some d -> check Alcotest.string "truncated stdout" "log" d.Replayer.dv_kind
      | None -> Alcotest.fail "truncated stdout went unnoticed")
    [ c.Link.cp_x86; c.Link.cp_arm ]

(* A divergence past the last anchor (here the exit syscall's result)
   carries the last anchor's recorded frames, on either ISA, and its
   report says whose frames they are. *)
let test_exit_divergence_frames () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  let log = record_exn c.Link.cp_x86 in
  let n = Log.points log in
  let exits = ref 0 in
  let tampered =
    { log with
      Log.lg_entries =
        List.map
          (function
            | Log.Syscall ({ sc_sys = "exit"; _ } as sc) ->
              incr exits;
              Log.Syscall { sc with sc_ret = Int64.succ sc.sc_ret }
            | e -> e)
          log.Log.lg_entries }
  in
  check Alcotest.int "one exit syscall recorded" 1 !exits;
  let want =
    List.concat_map
      (fun tf ->
        List.map
          (fun f ->
            Printf.sprintf "tid %d #%d %s ep%d" tf.Log.tf_tid f.Log.fi_depth
              f.Log.fi_func f.Log.fi_ep)
          tf.Log.tf_frames)
      (Log.point log (n - 1)).Log.eq_stacks
  in
  check Alcotest.bool "the last anchor has frames" true (want <> []);
  List.iter
    (fun bin ->
      let o = Replayer.replay ~log:tampered bin in
      let d = diverged_at "altered exit syscall" ~point:n o in
      check Alcotest.string "a syscall divergence" "syscall" d.Replayer.dv_kind;
      check Alcotest.(list string) "the last anchor's frames" want d.Replayer.dv_frames;
      check Alcotest.int "frames from the last anchor" (n - 1) d.Replayer.dv_frames_at;
      let label = Printf.sprintf "recorded frames at the last anchor (eqpoint %d):" (n - 1) in
      check Alcotest.bool "the report names that anchor" true
        (List.mem ("  " ^ label)
           (String.split_on_char '\n' (Replayer.divergence_report d))))
    [ c.Link.cp_x86; c.Link.cp_arm ]

(* Shadow replay localizes a seeded rewriter corruption: a clean
   migration's shadow matches, and a byte flipped in the rewritten
   image is pinned to the restore point with the diverging page named. *)
let test_shadow_localizes_corruption () =
  let c = Option.get (Corpus.find "mini-quickstart") in
  match
    Oracle.check_shadow ~max_points:2 ~src:Arch.X86_64 ~dst:Arch.Aarch64 c
  with
  | Error f -> Alcotest.fail (Oracle.failure_to_string f)
  | Ok r ->
    check Alcotest.bool "points exercised" true (r.Oracle.sr_points > 0);
    check Alcotest.int "every clean migration's shadow matched"
      r.Oracle.sr_points r.Oracle.sr_clean;
    check Alcotest.int "every corruption localized"
      r.Oracle.sr_points r.Oracle.sr_corrupted;
    check Alcotest.int "one divergence report per corruption"
      r.Oracle.sr_points (List.length r.Oracle.sr_divergences);
    List.iter
      (fun report ->
        check Alcotest.bool "report names the first diverging anchor" true
          (let contains hay needle =
             let nh = String.length hay and nn = String.length needle in
             let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
             go 0
           in
           contains report "first divergence"))
      r.Oracle.sr_divergences

let suites =
  [ ( "replay",
      [ Alcotest.test_case "corpus record/replay round-trips" `Quick
          test_corpus_round_trips;
        QCheck_alcotest.to_alcotest qcheck_generated_round_trip;
        Alcotest.test_case "log wire-format round-trip + checksum" `Quick
          test_log_wire_round_trip;
        Alcotest.test_case "recorded stdout checked at decode" `Quick
          test_log_stdout_checked;
        Alcotest.test_case "log fingerprints pinned on both ISAs" `Quick
          test_log_fingerprint_pins;
        Alcotest.test_case "same-ISA replay compares every field" `Quick
          test_same_isa_replay_exact;
        Alcotest.test_case "exit divergence names the last anchor" `Quick
          test_exit_divergence_frames;
        Alcotest.test_case "shadow localizes injected corruption" `Quick
          test_shadow_localizes_corruption ] ) ]
