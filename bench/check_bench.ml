(* check_bench: CI gate over BENCH_RESULTS.json. Fails (exit 1) when the
   file is missing, unparseable, missing a required top-level key, has a
   malformed benchmark entry, or lacks one of the must-have benchmark
   names — so a silently shrinking micro suite can't pass the bench job. *)

module J = Json_read

let required_names =
  [ "dapper/fig5-criu-dump"; "dapper/fig5-rewrite-x86-to-arm";
    "dapper/fig5-rewrite-warm-memo"; "dapper/fig5-pipeline-schedule";
    "dapper/fig5-criu-restore"; "dapper/redis-recode-x86-to-arm";
    "dapper/event-heap-churn"; "dapper/fig8-xl-sched-overhead";
    "dapper/replay-record"; "dapper/replay-run"; "dapper/transfer-verify";
    "dapper/commit-observe"; "dapper/commit-ack"; "dapper/interp-cold-5k-instrs";
    "dapper/dump-restore" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_bench: " ^ s); exit 1) fmt

let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_RESULTS.json"

(* Top-level key [key] of [doc], converted by [conv]; [kind] names the
   expected JSON type in the error. *)
let top doc key conv kind =
  match J.member_opt key doc with
  | Some v -> (try conv v with _ -> die "%s: %S is not a %s" file key kind)
  | None -> die "%s: missing key %S" file key

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
         | Some Dapper_util.Json.Null -> ()
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
  Printf.printf "check_bench: %s ok (%d benchmarks, %d required present)\n" file
    (List.length names) (List.length required_names)
