(* The wall-clock benchmark. One process runs one workload for one seed:

     bench.exe --workload W --seed N --seconds S [--trace FILE]

   A run sets up the workload's own activity, runs its first round and
   reads peak_rss_mb. Every workload reports every end-to-end metric, so
   then it sets up, untimed, a probe of each activity that produces a
   metric the workload's own does not (pingpong for migrations and
   instructions, live-traffic for requests, fleet for events; the last
   two run only as probes). For S seconds it then runs rounds of the own
   activity, the probes and the own activity's further set-up passes
   interleaved, the one with the fewest rounds going next. setup_s is the
   median over all set-up passes. Every time is reported at reference
   speed (see Common). The last line of
   stdout is one JSON object with the outcome counts and the metrics;
   with --trace it also holds the per-layer metrics, and FILE receives
   every span. *)

open Common

let workloads = [ "pingpong"; "run-migrate-finish" ]

(* An activity set up for rounds: its counters, its round and its
   end-to-end metrics. *)
type activity = {
  name : string;
  counters : counters;
  round : unit -> unit;
  metrics : unit -> (string * float) list;
  min_rounds : int;
  max_rounds : int;
  mutable rounds : int;
}

(* One set-up pass of activity [name]; every pass builds its own
   reference runs, compiling cold (see Common.native). *)
let prepare ~seed name =
  Hashtbl.reset references;
  let act st round metrics =
    { name; counters = fresh_counters (); round = (fun () -> round st);
      metrics = (fun () -> metrics st); min_rounds = 2; max_rounds = max_int; rounds = 0 }
  in
  counting (fresh_counters ()) (fun () ->
      match name with
      | "pingpong" -> act (Pingpong.prepare ~seed) Pingpong.round Pingpong.metrics
      | "run-migrate-finish" -> act (Rmf.prepare ~seed) Rmf.round Rmf.metrics
      | "live-traffic" -> act (Live.prepare ~seed) Live.round Live.metrics
      | _ -> act (Fleet.prepare ~seed) Fleet.round Fleet.metrics)

(* One set-up pass from a compacted heap, and its time at reference
   speed. *)
let setup_pass ~seed workload =
  Gc.compact ();
  let (act, s), scale =
    at_reference_speed (fun () ->
        let t0 = Span.now_ns () in
        let act = Span.record "setup" (fun () -> prepare ~seed workload) in
        (act, elapsed_s t0))
  in
  (act, s *. scale)

(* The own activity's set-up passes after the first, whose state is the
   one measured: rounds of their own in the window. [times] collects
   every pass's time. *)
let later_setups ~seed ~passes workload times =
  { name = "setup"; counters = fresh_counters ();
    round = (fun () -> times := snd (setup_pass ~seed workload) :: !times);
    metrics = (fun () -> []); min_rounds = passes; max_rounds = passes; rounds = 0 }

let probe ~seed name =
  Span.record ("probe." ^ name) (fun () -> Span.record "setup" (fun () -> prepare ~seed name))

(* A round starts with no garbage left by the round before, which may
   have been another activity's. *)
let run_round a =
  Gc.full_major ();
  counting a.counters (fun () -> timed_round (fun () -> Span.record ("round." ^ a.name) a.round));
  a.rounds <- a.rounds + 1

(* Rounds until the deadline, and until every activity has made its
   least number of rounds, the one with the fewest rounds so far going
   next, so every activity's step times rest on as many rounds. *)
let interleave acts ~deadline =
  let rec loop () =
    let open_ = List.filter (fun a -> a.rounds < a.max_rounds) acts in
    let least = function
      | [] -> None
      | a :: rest -> Some (List.fold_left (fun b a -> if a.rounds < b.rounds then a else b) a rest)
    in
    let next =
      if Span.now_ns () < deadline then least open_
      else least (List.filter (fun a -> a.rounds < a.min_rounds) open_)
    in
    Option.iter (fun a -> run_round a; loop ()) next
  in
  loop ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let units =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("migration_ms_p50", "ms");
    ("migration_ms_p95", "ms"); ("modeled_migration_ms", "ms"); ("minstr_per_s", "Minstr/s");
    ("requests_per_s", "req/s"); ("fleet_events_per_s", "events/s"); ("host.kernel_us", "us") ]

(* {1 Per-layer metrics of a traced run} *)

(* One activity's part of a run: the spans of its rounds, the spans of
   its set-up and how many set-up passes those are. *)
type part = { spans : Span.t list; setup_spans : Span.t list; passes : int }

(* The per-layer rows of the activity counting into [!current], in
   groups, each with whether its layer ran there. *)
let layers pt gc =
  let durations = Span.durations pt.spans in
  let ran name = durations name <> [] in
  let us_p q name = quantile q (List.map (fun ns -> ns /. 1e3) (durations name)) in
  let total_ns name = List.fold_left ( +. ) 0.0 (durations name) in
  let instrs = Int64.to_float !current.instrs in
  let drained = sum "pause.instrs_drained" in
  let plan = sum "recode.plan_hits" +. sum "recode.plan_misses" in
  let compile_ns =
    List.fold_left ( +. ) 0.0
      (Span.durations pt.setup_spans "registry.compiled" @ Span.durations pt.setup_spans "link.compile")
  in
  [ ( ran "process.run",
      [ ("process.ns_per_instr", "ns", Span.self_ns pt.spans "process.run" /. instrs);
        ("process.instrs", "count", instrs);
        ("process.decode_cache_entries", "count", mean (pushed "process.decode_cache_entries")) ] );
    ( ran "session",
      [ ("pause.us_p50", "us", us_p 0.5 "session.pause");
        ("pause.us_p95", "us", us_p 0.95 "session.pause");
        ("pause.instrs_drained", "count", drained);
        ("pause.ns_per_drained_instr", "ns", total_ns "session.pause" /. drained);
        ("dump.us_p50", "us", us_p 0.5 "session.dump");
        ("dump.pages", "count", sum "dump.pages");
        ("recode.us_p50", "us", us_p 0.5 "session.recode");
        ("recode.frames", "count", sum "recode.frames");
        ("recode.values", "count", sum "recode.values");
        ("recode.ptrs_translated", "count", sum "recode.ptrs_translated");
        ("recode.plan_hit_ratio", "ratio", sum "recode.plan_hits" /. plan);
        ("recode.index_lookups", "count", sum "recode.index_lookups");
        ("transfer.us_p50", "us", us_p 0.5 "session.transfer");
        ("transfer.image_bytes", "bytes", sum "transfer.image_bytes");
        ("transfer.us_per_mib", "us/MiB",
         total_ns "session.transfer" /. 1e3 /. (sum "transfer.image_bytes" /. 1048576.0));
        ("transfer.attempts", "count", sum "transport.tx.attempts");
        ("restore.us_p50", "us", us_p 0.5 "session.restore");
        ("restore.pages", "count", sum "restore.pages");
        ("commit.us_p50", "us", us_p 0.5 "session.commit");
        ("commit.pages_drained", "count", sum "commit.pages_drained") ] );
    ( ran "loadgen.run",
      [ ("loadgen.ns_per_request", "ns", total_ns "loadgen.run" /. sum "loadgen.requests");
        ("loadgen.stalled", "count", sum "loadgen.stalled");
        ("loadgen.faulted", "count", sum "loadgen.faulted");
        ("loadgen.precopy_rounds", "count", sum "session.precopy.rounds");
        ("loadgen.precopy_pages", "count", sum "session.precopy.pages") ]
      @ List.map
          (fun m ->
            let name = "loadgen.modeled_mig_p99_ms." ^ Dapper_traffic.Budget.mechanism_name m in
            (name, "ms", quantile 0.5 (pushed name)))
          Live.mechanisms );
    ( ran "fleet_xl.run",
      [ ("fleet.ns_per_event", "ns", total_ns "fleet_xl.run" /. sum "fleet.events");
        ("fleet.events", "count", sum "fleet.events");
        ("fleet.steals", "count", sum "fleet.steals");
        ("fleet.migrations", "count", sum "fleet.migrations") ]
      @ List.map
          (fun p ->
            let name = "fleet.modeled_jobs_per_kj." ^ Dapper_cluster.Placement.name p in
            (name, "jobs/kJ", mean (pushed name)))
          Fleet.policies
      @ [ ("scheduler.run_ms", "ms", quantile 0.5 (List.map (fun ns -> ns /. 1e6) (durations "scheduler.run"))) ] );
    (compile_ns > 0.0, [ ("compile.ms", "ms", compile_ns /. float_of_int pt.passes /. 1e6) ]);
    ( true,
      [ ("gc.minor_mwords", "Mwords", gc.Gc.minor_words /. 1e6);
        ("gc.major_collections", "count", float_of_int gc.Gc.major_collections);
        ("gc.top_heap_mb", "MB", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) ] ) ]

(* A layer's rows come from the first activity, the workload's own
   before the probes, where the layer ran. *)
let merge = function
  | [] -> []
  | own :: _ as acts ->
    List.concat
      (List.mapi
         (fun g (_, own_rows) ->
           match List.find_opt (fun groups -> fst (List.nth groups g)) acts with
           | Some groups -> snd (List.nth groups g)
           | None -> own_rows)
         own)

let json_metric (name, unit, v) =
  Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
    (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
    unit

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref "" in
  let reps = ref 5 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_string trace, "FILE trace every layer; write the spans to FILE");
      ("--setup-reps", Arg.Set_int reps, "K set-up passes (default 5)");
      ("--plant-mismatch", Arg.Set plant_mismatch, " corrupt every reference output") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S [--trace FILE]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  Span.enabled := !trace <> "";
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%b\n%!" !workload !seed
    !seconds !Span.enabled;
  let own, first_setup_s = setup_pass ~seed:!seed !workload in
  let setup_times = ref [ first_setup_s ] in
  Gc.compact ();
  run_round own;
  let rss_mb = peak_rss_mb () and gc = Gc.quick_stat () in
  let probes =
    List.filter_map
      (fun name -> if name = !workload then None else Some (probe ~seed:!seed name))
      [ "pingpong"; "live-traffic"; "fleet" ]
  in
  let acts = own :: probes in
  let setups = later_setups ~seed:!seed ~passes:(!reps - 1) !workload setup_times in
  Gc.compact ();
  interleave (setups :: acts) ~deadline:(deadline_after !seconds);
  let setup_s = quantile 0.5 !setup_times in
  let e2e =
    List.fold_left
      (fun acc a ->
        acc @ List.filter (fun (name, _) -> not (List.mem_assoc name acc)) (a.metrics ()))
      [ ("setup_s", setup_s); ("peak_rss_mb", rss_mb);
        ("host.kernel_us", quantile 0.5 !all_kernel_us) ]
      acts
    |> List.map (fun (name, v) -> (name, List.assoc name units, v))
  in
  let per_layer =
    if not !Span.enabled then []
    else
      let spans = Span.all () in
      let part a =
        let setup_roots = if a == own then [ "setup"; "round.setup" ] else [ "probe." ^ a.name ] in
        { spans = Span.under [ "round." ^ a.name ] spans;
          setup_spans = Span.under setup_roots spans;
          passes = (if a == own then !reps else 1) }
      in
      List.iter
        (fun a ->
          let pt = part a in
          Span.print_table stdout
            (Printf.sprintf "%s: set-up and %d rounds" a.name a.rounds)
            (pt.setup_spans @ pt.spans))
        acts;
      merge (List.map (fun a -> counting a.counters (fun () -> layers (part a) gc)) acts)
      @ [ ("error_rate", "ratio", float_of_int !failed /. float_of_int (max 1 !attempted)) ]
  in
  if !Span.enabled then Span.write !trace;
  Printf.printf "{\"workload\":%S,\"seed\":%d,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    !workload !seed !attempted !failed
    (String.concat "," (List.map json_metric (e2e @ per_layer)))
