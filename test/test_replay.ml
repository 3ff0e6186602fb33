(* The record/replay plane: record→replay round-trips byte-identically
   on the same ISA and validates cleanly across ISAs, recording never
   perturbs the execution it observes, and shadow replay localizes an
   injected rewriter corruption to its first diverging anchor. *)

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
  match Replayer.replay ~log bin with
  | Ok o -> o
  | Error d -> Alcotest.failf "replay diverged: %s" (Replayer.divergence_to_string d)

(* One full round-trip battery for a compiled program: record on [src],
   replay same-ISA (the re-recorded log must be byte-identical) and
   cross-ISA (stdout, exit and the final observed state must agree),
   and check the recording against an untapped live run. *)
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
      (* same-ISA replay: validated end to end, log reproduced bit for bit *)
      let same = replay_exn ~log src_bin in
      check Alcotest.bool
        (name ^ ": same-ISA replay reproduces the log byte-identically")
        true
        (Log.fingerprint same.Replayer.ro_log = Log.fingerprint log);
      check Alcotest.int
        (name ^ ": same-ISA replay walks every anchor")
        (Log.points log) same.Replayer.ro_points;
      check Alcotest.bool
        (name ^ ": same-ISA scheduler slices checked")
        true
        (same.Replayer.ro_sched_checked > 0);
      (* cross-ISA replay: syscalls validated, schedule skipped, final
         observable state identical (modulo the masked flag word) *)
      let cross = replay_exn ~log dst_bin in
      check Alcotest.string
        (name ^ ": cross-ISA stdout")
        log.Log.lg_stdout cross.Replayer.ro_stdout;
      check Alcotest.bool
        (name ^ ": cross-ISA exit")
        true
        (cross.Replayer.ro_exit = log.Log.lg_exit);
      check Alcotest.int
        (name ^ ": cross-ISA replay walks every anchor")
        (Log.points log) cross.Replayer.ro_points;
      check Alcotest.bool
        (name ^ ": cross-ISA final states observably equal")
        true
        (Process.state_equal (Process.observe live) cross.Replayer.ro_snapshot))
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
      let same = replay_exn ~log c.Link.cp_x86 in
      let cross = replay_exn ~log c.Link.cp_arm in
      Log.fingerprint same.Replayer.ro_log = Log.fingerprint log
      && cross.Replayer.ro_stdout = log.Log.lg_stdout
      && cross.Replayer.ro_exit = log.Log.lg_exit
      && cross.Replayer.ro_points = Log.points log)

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
        Alcotest.test_case "log fingerprints pinned on both ISAs" `Quick
          test_log_fingerprint_pins;
        Alcotest.test_case "shadow localizes injected corruption" `Quick
          test_shadow_localizes_corruption ] ) ]
