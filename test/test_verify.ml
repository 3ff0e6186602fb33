(* The conformance harness under test: the static stack-map verifier
   must accept every binary we ship and reject every targeted
   corruption, and the migration oracle must hold over the seeded
   generated corpus in both ISA directions. *)

open Dapper_isa
open Dapper_machine
module Link = Dapper_codegen.Link
module Static = Dapper_verify.Static
module Oracle = Dapper_verify.Oracle
module Gen = Dapper_verify.Gen
module Corpus = Dapper_verify.Corpus
module Registry = Dapper_workloads.Registry
module Derr = Dapper_util.Dapper_error

let check = Alcotest.check

let directions = [ (Arch.X86_64, Arch.Aarch64); (Arch.Aarch64, Arch.X86_64) ]

(* -- oracle equivalence over the generated corpus --

   Each seed names one deterministic program (compilation is memoized,
   so qcheck revisiting a seed is cheap). The walked prefix is capped:
   the uncapped every-point sweep lives in the session suite and the
   @conformance alias; here breadth beats depth. *)

let qcheck_oracle_generated =
  QCheck.Test.make ~name:"oracle: generated programs survive forced migration" ~count:200
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 200))
    (fun seed ->
      let c = Gen.compile seed in
      List.for_all
        (fun (src, dst) ->
          match Oracle.run ~max_points:3 ~src ~dst c with
          | Ok r -> r.Oracle.rp_migrations > 0
          | Error f -> QCheck.Test.fail_report (Oracle.failure_to_string f))
        directions)

(* -- the static verifier accepts everything we ship -- *)

let test_static_accepts_seed_binaries () =
  let programs =
    List.map (fun sp -> (sp.Registry.sp_name, Registry.compiled sp)) (Registry.all ())
    @ Corpus.all ()
  in
  check Alcotest.bool "some programs checked" true (List.length programs >= 5);
  List.iter
    (fun (name, c) ->
      match Static.check_compiled c with
      | [] -> ()
      | viols ->
        Alcotest.failf "%s rejected: %s" name
          (Static.violation_to_string (List.hd viols)))
    programs

(* -- and rejects every targeted stack-map corruption -- *)

let test_mutations_rejected () =
  let corrupted =
    Static.corruptions (Option.get (Corpus.find "mini-sieve"))
    @ Static.corruptions (Registry.compiled (Registry.find "nginx"))
  in
  check Alcotest.bool "at least 5 corruptions" true (List.length corrupted >= 5);
  List.iter
    (fun (name, c) ->
      match Static.run c with
      | Error (Derr.Verify_failed msg) ->
        check Alcotest.bool (name ^ " names a location") true
          (String.contains msg ':');
        check Alcotest.bool (name ^ " is terminal") false (Derr.retriable (Derr.Verify_failed msg))
      | Ok () -> Alcotest.failf "corruption %s was not rejected" name
      | Error e ->
        Alcotest.failf "corruption %s rejected with the wrong error: %s" name
          (Derr.to_string e))
    corrupted

(* -- observe is read-only -- *)

let test_observe_read_only () =
  let c = Option.get (Corpus.find "mini-pi") in
  let run_with_observe observe =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:50_000);
    if observe then begin
      let s1 = Process.observe p in
      let s2 = Process.observe p in
      check Alcotest.bool "repeated observation is stable" true (s1 = s2)
    end;
    match Process.run_to_completion p ~fuel:50_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | Process.Idle ->
      (* the pre-run already reached exit *)
      (match (Process.observe p).Process.sn_exit with
       | Some v -> (v, Process.stdout_contents p)
       | None -> Alcotest.fail "process idle without exiting")
    | _ -> Alcotest.fail "run did not finish"
  in
  let code_plain, out_plain = run_with_observe false in
  let code_obs, out_obs = run_with_observe true in
  check Alcotest.bool "exit code unchanged by observation" true
    (Int64.equal code_plain code_obs);
  check Alcotest.string "stdout unchanged by observation" out_plain out_obs

let suites =
  [ ( "verify",
      [ QCheck_alcotest.to_alcotest qcheck_oracle_generated;
        Alcotest.test_case "static verifier accepts all seed binaries" `Quick
          test_static_accepts_seed_binaries;
        Alcotest.test_case "corrupted stack maps are rejected" `Quick
          test_mutations_rejected;
        Alcotest.test_case "observe is read-only" `Quick test_observe_read_only ] ) ]
