open Dapper_util
open Dapper_net
module Session = Dapper.Session
module Budget = Dapper_traffic.Budget
module Sketch = Dapper_traffic.Sketch
module Arrival = Dapper_traffic.Arrival
module Loadgen = Dapper_traffic.Loadgen
module Derr = Dapper_error

type cfg = {
  su_requests : int;
  su_migrate_at_ms : float;
  su_control : bool;
}

let default_cfg =
  { su_requests = 20_000; su_migrate_at_ms = 1_000.0; su_control = true }

(* The fixed shape of every run: the request plane, the destination
   racks, and the bounds on the migration loop. *)
let lanes = 8
let rate_per_ms = 4.0
let service_src_ms = 1.2
let service_dst_ms = 1.0
let slo_ms = 25.0
let racks = 4
let servers_each = 2
let max_attempts = 16
let round_instrs = 20_000
let max_rounds = 6

let validate c =
  if c.su_requests <= 0 then invalid_arg "Sustained: su_requests <= 0"

(* ------------------------------------------------------------------ *)
(* Scenario: one correlated fault drawn per seed                       *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_bad_rack : int;
  sc_all_racks_bad : bool;   (** a quarter of scenarios hit every rack *)
  sc_degrade : float;        (** wire slowdown while bad, 4-8x *)
  sc_fault_prob : float;     (** payload fault probability while bad *)
  sc_bad_from_ms : float;
  sc_bad_until_ms : float;
}

let scenario_of c rng =
  let bad_rack = Rng.int rng racks in
  let all_bad = Rng.float rng < 0.25 in
  let degrade = 4.0 +. 4.0 *. Rng.float rng in
  let fprob = 0.15 +. 0.2 *. Rng.float rng in
  let from_ms =
    Float.max 0.0 (c.su_migrate_at_ms -. 200.0 -. 300.0 *. Rng.float rng)
  in
  let until_ms = c.su_migrate_at_ms +. 1_500.0 +. 2_000.0 *. Rng.float rng in
  { sc_bad_rack = bad_rack; sc_all_racks_bad = all_bad; sc_degrade = degrade;
    sc_fault_prob = fprob; sc_bad_from_ms = from_ms; sc_bad_until_ms = until_ms }

let rack_bad sc ~rack ~now_ms =
  now_ms >= sc.sc_bad_from_ms && now_ms < sc.sc_bad_until_ms
  && (sc.sc_all_racks_bad || rack = sc.sc_bad_rack)

(* Payload drops, checksum corruption, injected latency, and restore
   failures at the destination — the whole retriable surface, scaled by
   the scenario's fault probability. No source crashes: the chaos here
   is sustained degradation, not permanent loss. *)
let fault_spec sc =
  { Fault.calm with
    Fault.fs_drop = sc.sc_fault_prob *. 0.4;
    fs_corrupt = sc.sc_fault_prob *. 0.3;
    fs_delay = sc.sc_fault_prob;
    fs_delay_ns = 5.0e6;
    fs_fail_restore = sc.sc_fault_prob }

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type rung = Full | Hybrid_only | Postponed

let rung_name = function
  | Full -> "full"
  | Hybrid_only -> "hybrid"
  | Postponed -> "postponed"

(* Full lets the budget picker choose freely; the hybrid rung pins the
   minimum-blackout mechanism. *)
let rung_mechanism = function
  | Hybrid_only -> Some Budget.Hybrid
  | Full | Postponed -> None

let rung_rank = function Full -> 0 | Hybrid_only -> 1 | Postponed -> 2

(* Exponential backoff for postponed evictions, capped so a repeatedly
   postponed job re-attempts at a bounded cadence rather than never. *)
let postpone_backoff_ms ~attempt =
  if attempt < 0 then invalid_arg "Sustained.postpone_backoff_ms: attempt < 0";
  Float.min 8_000.0 (500.0 *. (2.0 ** float_of_int attempt))

type verdict = Committed | Degraded of rung | Rolled_back

let verdict_name = function
  | Committed -> "committed"
  | Degraded r -> "degraded:" ^ rung_name r
  | Rolled_back -> "rolled-back"

type event = { ev_ms : float; ev_kind : string; ev_detail : string }

type run = {
  r_seed : int64;
  r_scenario : scenario;
  r_verdict : verdict;
  r_attempts : int;
  r_postpones : int;
  r_sheds : int;
  r_trips : int;
  r_cancels : int;
  r_final_rack : int option;
  r_blackout_ms : float;       (** summed over every attempt's window *)
  r_requests : int;
  r_ok : int;
  r_availability : float;
  r_all : Sketch.t;
  r_during : Sketch.t;
  r_events : event list;       (** chronological *)
  r_fingerprint : int64;
}

(* Marginal wire cost of the transport at hand, as the budget picker
   wants it: slope of [transfer_ns] over a 1 MiB span (the fixed
   per-transfer latency cancels out). *)
let wire_ns_per_byte t =
  (Transport.transfer_ns t 1_048_576 -. Transport.transfer_ns t 0)
  /. 1_048_576.0

(* One clean stop-and-copy on a throwaway process calibrates the cost
   projection the budget picker works from: image size, fixed stage
   costs, a lazy-restore discount. The wire slope is re-measured per
   attempt from the transport actually chosen. *)
let calibrate (scfg : Session.config) p =
  let scfg =
    { scfg with
      Session.cfg_transport = Transport.scp (Transport.link scfg.Session.cfg_transport);
      cfg_fault = None;
      cfg_resident_pages = [] }
  in
  match Session.run (Session.start scfg p) with
  | Error e ->
    invalid_arg ("Sustained: calibration migration failed: " ^ Derr.to_string e)
  | Ok s ->
    let o = Session.finish s in
    let t = o.Session.r_times in
    let wire_bytes =
      int_of_float
        (float_of_int o.Session.r_image_bytes *. scfg.Session.cfg_bytes_scale)
    in
    { Budget.e_image_bytes = wire_bytes;
      e_residual_bytes = wire_bytes / 4;
      e_fixed_ms =
        t.Session.t_checkpoint_ms +. t.Session.t_recode_ms
        +. t.Session.t_restore_ms;
      e_lazy_fixed_ms =
        t.Session.t_checkpoint_ms +. t.Session.t_recode_ms
        +. 0.4 *. t.Session.t_restore_ms;
      e_wire_ns_per_byte = 1.0 (* placeholder; re-measured per attempt *) }

(* ------------------------------------------------------------------ *)
(* One run: migration control loop + open-loop request plane           *)
(* ------------------------------------------------------------------ *)

(* Pause between a failed attempt's rollback and the next try: the
   control plane's own reaction time, not a modeled cost. *)
let redo_pause_ms = 50.0

let breaker_cfg =
  { Breaker.b_failure_threshold = 2; b_open_ms = 400.0; b_probe_successes = 1 }

let run c (scfg : Session.config) ~fresh ~seed =
  validate c;
  let root = Rng.create seed in
  let sc = scenario_of c (Rng.split root) in
  let arrival_seed = Rng.next root in
  let service_rng = Rng.split root in
  let fault_rng = Rng.split root in
  let est0 = calibrate scfg (fresh ()) in
  let planned = sc.sc_bad_rack in
  let link = Transport.link scfg.Session.cfg_transport in
  let pool = Rack.create ~racks ~servers_each in
  let breakers = Array.init racks (fun _ -> Breaker.create ~cfg:breaker_cfg ()) in
  let events = ref [] in
  let event ~ms kind detail =
    events := { ev_ms = ms; ev_kind = kind; ev_detail = detail } :: !events
  in
  let rung = ref Full in
  let deepest = ref Full in
  let sink r = if rung_rank r > rung_rank !deepest then deepest := r in
  let p = fresh () in
  let windows = ref [] in           (* (start, stop), chronological, disjoint *)
  let now = ref c.su_migrate_at_ms in
  let attempts = ref 0 in
  let postpones = ref 0 in
  let sheds = ref 0 in
  let cancels = ref 0 in
  let committed = ref None in       (* (rack, mech, transport, fault, outcome, stop) *)
  let transport_for ~rack ~lazy_ ~attempt =
    let base = if lazy_ then Transport.page_server link else Transport.scp link in
    let base =
      if rack_bad sc ~rack ~now_ms:!now then
        Transport.degraded ~factor:sc.sc_degrade base
      else base
    in
    let jitter =
      if c.su_control then
        Some (Int64.add seed (Int64.of_int ((attempt * 31) + rack)))
      else None
    in
    Transport.retrying ~attempts:4 ?jitter base
  in
  let fault_for ~rack ~attempt =
    if rack_bad sc ~rack ~now_ms:!now then
      Some
        (Fault.make
           ~seed:(Int64.to_int (Int64.add seed (Int64.of_int (attempt * 131))))
           (fault_spec sc))
    else None
  in
  let healthy_est =
    { est0 with
      Budget.e_wire_ns_per_byte = wire_ns_per_byte (Transport.scp link) }
  in
  (* The blackout budget sits comfortably above the calibrated healthy
     stop-and-copy blackout, so a clean migration always fits — and a
     4-8x degraded wire does not. *)
  let budget = 1.2 *. Budget.downtime_ms healthy_est Budget.Vanilla in
  (* fixed-mechanism baseline for the control-off arm: whatever the
     budget picker would choose on the healthy calibration numbers *)
  let off_mech = Budget.choose ~budget_ms:budget healthy_est in
  let breaker_fail rack ~ms =
    let was_open = Breaker.state breakers.(rack) = Breaker.Open in
    Breaker.record_failure breakers.(rack) ~now_ms:ms;
    if (not was_open) && Breaker.state breakers.(rack) = Breaker.Open then
      event ~ms "breaker-trip" (Printf.sprintf "rack=%d" rack)
  in
  (* The planned rack while its breaker admits work, else the lowest
     rack whose breaker does; [None] when every breaker is open. Every
     breaker is asked, since [allow] is what moves an open breaker past
     its cooldown to half-open. *)
  let place () =
    let admissible =
      List.filter
        (fun r -> Breaker.allow breakers.(r) ~now_ms:!now)
        (List.init racks Fun.id)
    in
    if List.mem planned admissible then Some planned
    else List.nth_opt admissible 0
  in
  let postpone () =
    incr postpones;
    sink Postponed;
    let back = postpone_backoff_ms ~attempt:(!postpones - 1) in
    event ~ms:!now "postpone" (Printf.sprintf "backoff=%.0fms" back);
    now := !now +. back;
    (* conditions are re-evaluated from scratch after the wait *)
    rung := Full
  in
  while !committed = None && !attempts < max_attempts do
    incr attempts;
    let attempt = !attempts in
    match if c.su_control then place () else Some planned with
    | None -> postpone ()
    | Some rack ->
      if rack <> planned then begin
        incr sheds;
        event ~ms:!now "shed" (Printf.sprintf "rack=%d" rack)
      end;
      (* --- mechanism: the hybrid pin, or the budget picker on the
         wire this rack shows now --- *)
      let mech =
        if not c.su_control then off_mech
        else
          match rung_mechanism !rung with
          | Some m -> m
          | None ->
            let probe = transport_for ~rack ~lazy_:false ~attempt in
            Budget.choose ~budget_ms:budget
              { est0 with Budget.e_wire_ns_per_byte = wire_ns_per_byte probe }
      in
      let transport =
        transport_for ~rack ~lazy_:(Budget.needs_lazy mech) ~attempt
      in
      let fault = fault_for ~rack ~attempt in
      let scfg', pre =
        Loadgen.precopy
          { scfg with Session.cfg_transport = transport; cfg_fault = fault }
          p mech ~round_instrs ~max_rounds ~downtime_budget_ms:budget
      in
      let precopy_ms =
        match pre with Some s -> s.Session.pcs_ms | None -> 0.0
      in
      let att =
        Guard.run ~budget_ms:(if c.su_control then budget else infinity) scfg' p
      in
      let black_start = !now +. precopy_ms in
      let black_stop = black_start +. att.Guard.ga_blackout_ms in
      if att.Guard.ga_blackout_ms > 0.0 then
        windows := (black_start, black_stop) :: !windows;
      (match att.Guard.ga_outcome with
       | Ok o ->
         if c.su_control then Breaker.record_success breakers.(rack) ~now_ms:!now;
         event ~ms:black_stop "commit"
           (Printf.sprintf "rack=%d mech=%s rung=%s attempt=%d" rack
              (Budget.mechanism_name mech) (rung_name !rung) attempt);
         committed := Some (rack, mech, transport, fault, o, black_stop)
       | Error e ->
         if c.su_control then breaker_fail rack ~ms:black_stop;
         (match att.Guard.ga_cancelled with
          | Some stage ->
            incr cancels;
            event ~ms:black_stop "deadline-cancel"
              (Printf.sprintf "rack=%d stage=%s" rack (Derr.stage_name stage))
          | None ->
            event ~ms:black_stop "rollback"
              (Printf.sprintf "rack=%d error=%s" rack (Derr.to_string e)));
         (* a deadline cancel means the picker's choice no longer fits:
            pin hybrid from here on. Plain wire failures are the
            breaker's problem, not the mechanism's. *)
         if c.su_control && att.Guard.ga_cancelled <> None && !rung = Full
         then begin
           rung := Hybrid_only;
           sink Hybrid_only;
           event ~ms:black_stop "degrade" (rung_name Hybrid_only)
         end;
         now := black_stop +. redo_pause_ms)
  done;
  let verdict =
    match !committed with
    | None -> Rolled_back
    | Some _ -> if !deepest = Full then Committed else Degraded !deepest
  in
  if verdict = Rolled_back then
    event ~ms:!now "rollback" "attempts exhausted; source kept running";
  (* ---------------- the open-loop request plane ---------------- *)
  let windows = List.rev !windows in
  let blackout_total =
    List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0.0 windows
  in
  let page_bytes =
    int_of_float
      (float_of_int Dapper_binary.Layout.page_size
       *. scfg.Session.cfg_bytes_scale)
  in
  (* A committed run resumes on its rack and owes its post-copy pages
     there: a fault pays the rack's injected faults while the rack is
     still bad, plus the wait for a page server. A rolled-back run never
     resumes; its migration window closes with the last blackout. *)
  let resume, mig_end, lazy_left, hot_pages, fault_stall =
    match !committed with
    | Some (rack, mech, transport, fault, o, stop) ->
      let fault_stall now_ms =
        let fault = if rack_bad sc ~rack ~now_ms then fault else None in
        let stall =
          Transport.fetch_stall_ns transport ?fault ~page_bytes () /. 1e6
        in
        stall +. snd (Rack.acquire_wait pool ~rack ~now_ms ~service_ms:stall)
      in
      ( stop, stop,
        (if Budget.needs_lazy mech then o.Session.r_lazy_left else 0),
        (let d = o.Session.r_dump in
         d.Dapper_criu.Dump.pages_dumped + d.Dapper_criu.Dump.pages_lazy),
        fault_stall )
    | None ->
      let last_end =
        match List.rev windows with (_, e) :: _ -> e | [] -> c.su_migrate_at_ms
      in
      (infinity, last_end, 0, 1, fun _ -> 0.0)
  in
  let ok_n = ref 0 in
  let all, during, _faulted, fp =
    Loadgen.serve ~requests:c.su_requests ~lanes ~service_src_ms
      ~service_dst_ms ~arrivals:(Arrival.poisson ~seed:arrival_seed ~rate_per_ms)
      ~service_rng ~fault_rng
      { Loadgen.tl_start = c.su_migrate_at_ms; tl_blackouts = windows;
        tl_resume = resume; tl_end = mig_end }
      ~lazy_left ~hot_pages ~fault_stall
      ~on_latency:(fun lat -> if lat <= slo_ms then incr ok_n)
  in
  let fp = Bytebuf.fnv64_mix fp (Int64.of_int !attempts) in
  let fp = Bytebuf.fnv64_mix fp (Int64.of_int (rung_rank !deepest)) in
  { r_seed = seed;
    r_scenario = sc;
    r_verdict = verdict;
    r_attempts = !attempts;
    r_postpones = !postpones;
    r_sheds = !sheds;
    r_trips = Array.fold_left (fun acc b -> acc + Breaker.trips b) 0 breakers;
    r_cancels = !cancels;
    r_final_rack =
      (match !committed with Some (rk, _, _, _, _, _) -> Some rk | None -> None);
    r_blackout_ms = blackout_total;
    r_requests = c.su_requests;
    r_ok = !ok_n;
    r_availability = float_of_int !ok_n /. float_of_int c.su_requests;
    r_all = all;
    r_during = during;
    r_events = List.rev !events;
    r_fingerprint = fp }

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

type summary = {
  y_control : bool;
  y_seeds : int;
  y_committed : int;
  y_degraded : int;
  y_rolled_back : int;
  y_postponed : int;          (** runs with at least one postponement *)
  y_attempts : int;
  y_sheds : int;
  y_trips : int;
  y_cancels : int;
  y_blackout_ms : float;
  y_requests : int;
  y_ok : int;
  y_availability : float;
  y_all : Sketch.t;
  y_during : Sketch.t;
}

let summarize ~control runs =
  let all = ref (Sketch.create ()) in
  let during = ref (Sketch.create ()) in
  let c = ref 0 and d = ref 0 and rb = ref 0 and pp = ref 0 in
  let at = ref 0 and sh = ref 0 and tr = ref 0 and ca = ref 0 in
  let bl = ref 0.0 and rq = ref 0 and ok = ref 0 in
  List.iter
    (fun r ->
      (match r.r_verdict with
       | Committed -> incr c
       | Degraded _ -> incr d
       | Rolled_back -> incr rb);
      if r.r_postpones > 0 then incr pp;
      at := !at + r.r_attempts;
      sh := !sh + r.r_sheds;
      tr := !tr + r.r_trips;
      ca := !ca + r.r_cancels;
      bl := !bl +. r.r_blackout_ms;
      rq := !rq + r.r_requests;
      ok := !ok + r.r_ok;
      all := Sketch.merge !all r.r_all;
      during := Sketch.merge !during r.r_during)
    runs;
  { y_control = control;
    y_seeds = List.length runs;
    y_committed = !c;
    y_degraded = !d;
    y_rolled_back = !rb;
    y_postponed = !pp;
    y_attempts = !at;
    y_sheds = !sh;
    y_trips = !tr;
    y_cancels = !ca;
    y_blackout_ms = !bl;
    y_requests = !rq;
    y_ok = !ok;
    y_availability =
      (if !rq = 0 then 1.0 else float_of_int !ok /. float_of_int !rq);
    y_all = !all;
    y_during = !during }

let sweep c scfg ~fresh ~seeds ~seed0 =
  let runs =
    List.init seeds (fun i ->
        run c scfg ~fresh ~seed:(Int64.add seed0 (Int64.of_int i)))
  in
  (runs, summarize ~control:c.su_control runs)

let mig_p99 y =
  if Sketch.count y.y_during = 0 then 0.0 else Sketch.quantile y.y_during 0.99

(* Both arms replay the same seeds — the same scenarios, the same fault
   schedules — so the control-on vs control-off contrast is paired. *)
let paired c scfg ~fresh ~seeds ~seed0 =
  let arm control = sweep { c with su_control = control } scfg ~fresh ~seeds ~seed0 in
  let on = arm true in
  let off = arm false in
  let breaches (runs, y) =
    let name = if y.y_control then "control-on" else "control-off" in
    let verdicts = y.y_committed + y.y_degraded + y.y_rolled_back in
    (if verdicts <> seeds then
       [ Printf.sprintf
           "sustained FAILED (%s): %d explicit verdicts <> %d seeds — a run \
            ended without committing or rolling back"
           name verdicts seeds ]
     else [])
    @ List.filter_map
        (fun r ->
          if r.r_attempts <= max_attempts then None
          else
            Some
              (Printf.sprintf "sustained FAILED (%s): seed %016Lx took %d attempts (bound %d)"
                 name r.r_seed r.r_attempts max_attempts))
        runs
  in
  let tail =
    if mig_p99 (snd on) > mig_p99 (snd off) then
      [ "sustained FAILED: control plane worsened the during-migration p99" ]
    else []
  in
  (on, off, breaches on @ breaches off @ tail)

let summary_line y =
  Printf.sprintf
    "control=%s seeds=%d committed=%d degraded=%d rolled-back=%d postponed=%d \
     attempts=%d sheds=%d trips=%d cancels=%d avail=%.4f mig-p99=%.3f p99=%.3f"
    (if y.y_control then "on" else "off")
    y.y_seeds y.y_committed y.y_degraded y.y_rolled_back y.y_postponed
    y.y_attempts y.y_sheds y.y_trips y.y_cancels y.y_availability (mig_p99 y)
    (if Sketch.count y.y_all = 0 then 0.0 else Sketch.quantile y.y_all 0.99)

let event_lines r =
  List.map
    (fun e ->
      Printf.sprintf "%016Lx %10.2f %-15s %s" r.r_seed e.ev_ms e.ev_kind
        e.ev_detail)
    r.r_events
