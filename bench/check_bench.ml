(* check_bench: CI gate over BENCH_RESULTS.json. Fails (exit 1) when the
   file is missing, unparseable, missing a required top-level key, has a
   malformed benchmark entry, or lacks one of the must-have benchmark
   names — so a silently shrinking micro suite can't pass the bench job. *)

module J = Dapper_util.Json

let required_names =
  [ "dapper/fig5-criu-dump"; "dapper/fig5-rewrite-x86-to-arm";
    "dapper/fig5-rewrite-warm-memo"; "dapper/fig5-pipeline-schedule";
    "dapper/fig5-criu-restore"; "dapper/redis-recode-x86-to-arm";
    "dapper/event-heap-churn"; "dapper/fig8-xl-sched-overhead";
    "dapper/replay-record"; "dapper/replay-run"; "dapper/transfer-verify";
    "dapper/commit-observe" ]

(* Placement policies every fig8-xl sweep must cover, and the numeric
   fields every row must carry. *)
let required_xl_policies = [ "first-fit"; "energy-aware"; "slo-aware" ]

let required_xl_fields =
  [ "nodes"; "jobs"; "jobs_done"; "slo_met"; "slo_missed"; "nodes_powered";
    "jobs_per_kj"; "throughput_per_min"; "events"; "events_per_sim_s";
    "makespan_ms" ]

(* Migration mechanisms every fig7-live sweep must cover, and the numeric
   fields every row must carry. *)
let required_live_mechanisms = [ "vanilla"; "lazy"; "hybrid" ]

let required_live_fields =
  [ "requests"; "stalled"; "faulted"; "precopy_ms"; "blackout_ms"; "p50_ms";
    "p99_ms"; "p999_ms"; "mig_p50_ms"; "mig_p99_ms"; "mig_p999_ms" ]

(* Both arms of the sustained-chaos sweep must be present, every row
   must carry these numeric fields, the per-arm verdicts must account
   for every seed (no lost states), and the control plane must not
   worsen the during-migration tail. *)
let required_chaos_arms = [ "on"; "off" ]

let required_chaos_fields =
  [ "seeds"; "committed"; "degraded"; "rolled_back"; "postponed"; "attempts";
    "sheds"; "breaker_trips"; "deadline_cancels"; "availability"; "mig_p99_ms" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_bench: " ^ s); exit 1) fmt

let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_RESULTS.json"

(* Top-level key [key] of [doc], converted by [conv]; [kind] names the
   expected JSON type in the error. *)
let top doc key conv kind =
  match J.member_opt key doc with
  | Some v -> (try conv v with _ -> die "%s: %S is not a %s" file key kind)
  | None -> die "%s: missing key %S" file key

(* Numeric [field] of the row of section [key] whose id is [id]. *)
let number key id row field =
  match J.member_opt field row with
  | Some v -> (try J.to_float v with _ -> die "%s: %s %s: %S is not a number" file key id field)
  | None -> die "%s: %s %s: missing %S" file key id field

(* One row section: [key] must be a non-empty list whose rows each carry
   a string [id_field] and every numeric field in [fields], with
   [nonzero] above zero, then pass [each]; every id in [required] (a
   [noun] in the errors) must appear. Returns the rows by id. *)
let section doc key ~id_field ~noun ~fields ~nonzero ~required ~each =
  let rows = top doc key J.to_list "list" in
  if rows = [] then die "%s: %S is empty" file key;
  let by_id =
    List.map
      (fun row ->
        let id =
          match J.member_opt id_field row with
          | Some v ->
            (try J.to_str v with _ -> die "%s: %s row %S is not a string" file key id_field)
          | None -> die "%s: %s row missing %S" file key id_field
        in
        List.iter (fun f -> ignore (number key id row f)) fields;
        if number key id row nonzero <= 0.0 then die "%s: %s %s: %s is zero" file key id nonzero;
        each id row;
        (id, row))
      rows
  in
  List.iter
    (fun want ->
      if not (List.mem_assoc want by_id) then die "%s: %s missing %s %S" file key noun want)
    required;
  by_id

let () =
  let contents =
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> die "cannot read %s: %s" file e
  in
  let doc = try J.of_string contents with J.Parse_error e -> die "%s: %s" file e in
  let suite = top doc "suite" J.to_str "string" in
  if suite <> "dapper-micro" then die "%s: unexpected suite %S" file suite;
  ignore (top doc "smoke" J.to_bool "bool");
  let entries = top doc "benchmarks" J.to_list "list" in
  let names =
    List.map
      (fun e ->
        let name =
          match J.member_opt "name" e with
          | Some n ->
            (try J.to_str n with _ -> die "%s: benchmark \"name\" is not a string" file)
          | None -> die "%s: benchmark entry missing \"name\"" file
        in
        (match J.member_opt "ns_per_run" e with
         | Some J.Null -> ()
         | Some v ->
           (try ignore (J.to_float v)
            with _ -> die "%s: %s: \"ns_per_run\" is not a number" file name)
         | None -> die "%s: %s: missing \"ns_per_run\"" file name);
        name)
      entries
  in
  List.iter
    (fun want ->
      if not (List.mem want names) then die "%s: missing benchmark %S" file want)
    required_names;
  let xl_rows =
    section doc "fig8_xl" ~id_field:"policy" ~noun:"policy" ~fields:required_xl_fields
      ~nonzero:"jobs_done" ~required:required_xl_policies ~each:(fun _ _ -> ())
  in
  let live_rows =
    section doc "fig7_live" ~id_field:"mechanism" ~noun:"mechanism"
      ~fields:required_live_fields ~nonzero:"requests" ~required:required_live_mechanisms
      ~each:(fun mech row ->
        match J.member_opt "fingerprint" row with
        | Some f ->
          (try
             if String.length (J.to_str f) <> 16 then
               die "%s: fig7_live %s: fingerprint is not 16 hex chars" file mech
           with _ -> die "%s: fig7_live %s: \"fingerprint\" is not a string" file mech)
        | None -> die "%s: fig7_live %s: missing \"fingerprint\"" file mech)
  in
  let chaos_rows =
    section doc "fig9_chaos" ~id_field:"control" ~noun:"control arm"
      ~fields:required_chaos_fields ~nonzero:"seeds" ~required:required_chaos_arms
      ~each:(fun arm row ->
        let field = number "fig9_chaos" arm row in
        let seeds = field "seeds" in
        let verdicts = field "committed" +. field "degraded" +. field "rolled_back" in
        if verdicts <> seeds then
          die
            "%s: fig9_chaos %s: committed+degraded+rolled_back = %g <> %g \
             seeds (a run ended without an explicit verdict)"
            file arm verdicts seeds)
  in
  let p99 arm =
    Option.map (fun row -> number "fig9_chaos" arm row "mig_p99_ms") (List.assoc_opt arm chaos_rows)
  in
  (match (p99 "on", p99 "off") with
   | Some p_on, Some p_off when p_on > p_off ->
     die
       "%s: fig9_chaos: control-on during-migration p99 (%.2f ms) worse than \
        control-off (%.2f ms)"
       file p_on p_off
   | _ -> ());
  Printf.printf
    "check_bench: %s ok (%d benchmarks, %d required present, %d fig8-xl rows, \
     %d fig7-live rows, %d fig9-chaos rows)\n"
    file (List.length names) (List.length required_names) (List.length xl_rows)
    (List.length live_rows) (List.length chaos_rows)
