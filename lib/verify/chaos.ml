open Dapper_isa
open Dapper_machine
module Link = Dapper_codegen.Link
module Session = Dapper.Session
module Transport = Dapper_net.Transport
module Netlink = Dapper_net.Link
module Fault = Dapper_util.Fault
module Rng = Dapper_util.Rng
module Derr = Dapper_util.Dapper_error
module Trace = Dapper_obs.Trace
module Budget = Dapper_traffic.Budget
module Replayer = Dapper_replay.Replayer
module Log = Dapper_replay.Log

type verdict = Committed | Rolled_back of Derr.t

type run_report = {
  cr_app : string;
  cr_src : Arch.t;
  cr_dst : Arch.t;
  cr_seed : int;
  cr_point : int;
  cr_transport : string;
  cr_mechanism : Budget.mechanism option;
  cr_verdict : verdict;
  cr_faults : int;
  cr_retransmits : int;
  cr_drained : int;
  cr_added_ms : float;
}

type failure = {
  cf_app : string;
  cf_src : Arch.t;
  cf_dst : Arch.t;
  cf_seed : int;
  cf_what : string;
}

type summary = {
  cs_runs : int;
  cs_committed : int;
  cs_rolled_back : int;
  cs_faults : int;
  cs_retransmits : int;
  cs_drained : int;
  cs_added_ms : float;
}

let verdict_name = function
  | Committed -> "committed"
  | Rolled_back e -> "rolled-back (" ^ Derr.to_string e ^ ")"

let run_report_to_string r =
  Printf.sprintf "seed %d %s %s->%s @%d over %s%s: %s, %d faults, %d retransmits, +%.2f ms"
    r.cr_seed r.cr_app (Arch.name r.cr_src) (Arch.name r.cr_dst) r.cr_point
    r.cr_transport
    (match r.cr_mechanism with
     | None -> ""
     | Some m -> " [" ^ Budget.mechanism_name m ^ "]")
    (verdict_name r.cr_verdict) r.cr_faults r.cr_retransmits
    r.cr_added_ms

let failure_to_string f =
  Printf.sprintf "seed %d %s %s->%s: %s" f.cf_seed f.cf_app (Arch.name f.cf_src)
    (Arch.name f.cf_dst) f.cf_what

let summary_to_string s =
  Printf.sprintf
    "%d runs: %d committed, %d rolled back, 0 lost; %d faults injected, %d \
     retransmissions, %d pages drained at commit, +%.2f ms added latency"
    s.cs_runs s.cs_committed s.cs_rolled_back s.cs_faults s.cs_retransmits
    s.cs_drained s.cs_added_ms

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* The seeded transport menu: eager scp or lazy post-copy, sometimes
   over a congested link, always armed with bounded retransmission.
   Drawn from the run's own stream so the choice is replayable. With a
   forced [mechanism], the copy style is pinned instead (the eager/lazy
   coin is still consumed, so the congestion draw and the fault schedule
   stay aligned with the unpinned run of the same seed). *)
let pick_transport ?mechanism rng =
  let coin_eager = Rng.float rng < 0.5 in
  let eager =
    match mechanism with
    | None -> coin_eager
    | Some (Budget.Vanilla | Budget.Precopy) -> true
    | Some (Budget.Hybrid | Budget.Postcopy) -> false
  in
  let base =
    if eager then Transport.scp Netlink.infiniband
    else Transport.page_server Netlink.infiniband
  in
  let base =
    if Rng.float rng < 0.25 then Transport.degraded ~factor:2.0 base else base
  in
  Transport.retrying ~attempts:4 base

(* One chaos run: migrate a fresh source parked at a seeded equivalence
   point under a seeded fault schedule, then enforce the invariant — the
   migration either commits with a destination that shadow-replays the
   source's recording [log] from that point to exit, or rolls back to a
   source that is running and does the same. Either way, no process is
   ever lost or corrupted. *)
let run_one ?(pipeline = false) ?mechanism ~spec ~seed ~log ~dst (c : Link.compiled) =
  let src = log.Log.lg_arch in
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let go () =
    let rng = Rng.create (Int64.of_int ((seed * 2) + 1)) in
    (* migration targets beyond a small prefix add coverage but not new
       failure modes, and replaying to deep points is linear per run *)
    let points = min 6 (Log.points log) in
    if points = 0 then fail "program reaches no equivalence point";
    let point = Rng.int rng points in
    let transport = pick_transport ?mechanism rng in
    let p = Process.load src_bin in
    if not (Oracle.advance_to_point p ~budget:Dapper.Monitor.default_budget point)
    then fail "source exited before point %d on replay" point;
    let fault = Fault.make ~seed spec in
    let base_cfg =
      { (Session.default_config ~src_bin ~dst_bin) with
        Session.cfg_transport = transport;
        cfg_commit_drain = true;
        (* pipelined chaos: stream in page-sized chunks (corpus images
           are unscaled, so the default 256 KiB would be one chunk) —
           faults mid-stream must still commit-or-rollback *)
        cfg_pipeline = pipeline;
        cfg_chunk_bytes = (if pipeline then 4096 else 262_144) }
    in
    (* Mechanisms with a pre-copy prologue warm the destination first,
       fault-free, with a no-op advance: the parked source makes no
       progress, so it stays at anchor [point] and the invariant checks
       below are unchanged. *)
    let resident =
      match mechanism with
      | Some (Budget.Precopy | Budget.Hybrid) ->
        let st =
          Session.precopy base_cfg p ~advance:(fun _ -> ()) ~max_rounds:3
            ~downtime_budget_ms:0.0
        in
        st.Session.pcs_resident
      | _ -> []
    in
    let cfg =
      { base_cfg with
        Session.cfg_fault = Some fault;
        cfg_resident_pages = resident }
    in
    (* the started session keeps its transfer accounting when a stage
       fails *)
    let s = Session.start cfg p in
    let tx = Session.transfer_stats s in
    let outcome = Result.map Session.finish (Session.run s) in
    (* a committed destination, or a rolled-back source (same ISA, so
       its scheduler slices are validated too), must shadow-replay the
       recording from the migration point to exit *)
    let shadow what q =
      let o = Replayer.shadow ~log ~from_point:point q in
      if o.Replayer.ro_divergence <> None then
        fail "%s diverged from the recording\n%s" what (Replayer.outcome_to_string o)
    in
    let verdict, retransmits, drained =
      match outcome with
      | Ok r ->
        (* commit acknowledged: the destination owns the process *)
        shadow "committed destination" r.Session.r_process;
        if not (Process.all_quiescent p) then
          fail "committed migration left the source running";
        let page_rt =
          match r.Session.r_page_server with
          | Some ps -> ps.Transport.srv_retransmits
          | None -> 0
        in
        (Committed, tx.Transport.tx_retransmits + page_rt, r.Session.r_drained)
      | Error e ->
        (* rolled back: the source must be running again and unharmed *)
        if Process.all_quiescent p then
          fail "rollback left the source parked (error: %s)" (Derr.to_string e);
        shadow "rolled-back source" p;
        (Rolled_back e, tx.Transport.tx_retransmits, 0)
    in
    { cr_app = c.Link.cp_app;
      cr_src = src;
      cr_dst = dst;
      cr_seed = seed;
      cr_point = point;
      cr_transport = Transport.name transport;
      cr_mechanism = mechanism;
      cr_verdict = verdict;
      cr_faults = Fault.injected fault;
      cr_retransmits = retransmits;
      cr_drained = drained;
      (* cost of chaos = injected delays + retry backoff (the backoff
         share is tallied separately since the accounting split) *)
      cr_added_ms = (tx.Transport.tx_fault_ns +. tx.Transport.tx_backoff_ns) /. 1e6 }
  in
  let traced () =
    Trace.with_span ~cat:"chaos" "chaos-run"
      ~args:
        [ ("seed", string_of_int seed); ("app", c.Link.cp_app);
          ("src", Arch.name src); ("dst", Arch.name dst) ]
      (fun _ -> go ())
  in
  match traced () with
  | report -> Ok report
  | exception Fail what ->
    Error { cf_app = c.Link.cp_app; cf_src = src; cf_dst = dst; cf_seed = seed;
            cf_what = what }

(* N seeded schedules swept over the whole example corpus, alternating
   migration direction: the chaos suite proper. Each (program, source
   ISA) pair is recorded once per sweep. Stops at the first invariant
   violation. *)
let sweep ?pipeline ?mechanism ?(progress = fun _ -> ()) ~spec ~seeds () =
  let corpus = Corpus.all () in
  let n_programs = List.length corpus in
  let recordings = Hashtbl.create 8 in
  let recording c src =
    let key = (c.Link.cp_app, src) in
    match Hashtbl.find_opt recordings key with
    | Some r -> r
    | None ->
      let r = Replayer.record (Link.binary_for c src) in
      Hashtbl.add recordings key r;
      r
  in
  let zero =
    { cs_runs = 0; cs_committed = 0; cs_rolled_back = 0; cs_faults = 0;
      cs_retransmits = 0; cs_drained = 0; cs_added_ms = 0.0 }
  in
  let rec go seed acc =
    if seed >= seeds then Ok acc
    else begin
      let _, c = List.nth corpus (seed mod n_programs) in
      let src, dst =
        if seed / n_programs mod 2 = 0 then (Arch.X86_64, Arch.Aarch64)
        else (Arch.Aarch64, Arch.X86_64)
      in
      let outcome =
        match recording c src with
        | Ok log -> run_one ?pipeline ?mechanism ~spec ~seed ~log ~dst c
        | Error e ->
          Error
            { cf_app = c.Link.cp_app; cf_src = src; cf_dst = dst; cf_seed = seed;
              cf_what = "recording failed: " ^ e }
      in
      match outcome with
      | Error _ as e -> e
      | Ok r ->
        progress r;
        let acc =
          { cs_runs = acc.cs_runs + 1;
            cs_committed =
              (acc.cs_committed + match r.cr_verdict with Committed -> 1 | _ -> 0);
            cs_rolled_back =
              (acc.cs_rolled_back
               + match r.cr_verdict with Rolled_back _ -> 1 | _ -> 0);
            cs_faults = acc.cs_faults + r.cr_faults;
            cs_retransmits = acc.cs_retransmits + r.cr_retransmits;
            cs_drained = acc.cs_drained + r.cr_drained;
            cs_added_ms = acc.cs_added_ms +. r.cr_added_ms }
        in
        go (seed + 1) acc
    end
  in
  go 0 zero
