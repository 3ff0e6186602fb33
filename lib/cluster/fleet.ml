open Dapper_util
open Dapper_machine
open Dapper_net
open Dapper_codegen
module Session = Dapper.Session
module Trace = Dapper_obs.Trace

type config = {
  f_window_ms : float;
  f_xeon_slots : int;
  f_rpis : int;
  f_rpi_slots_each : int;
  f_evict : bool;
  f_bytes_scale : float;
  f_pause_budget : int;
  f_transport : Transport.t;
  f_fault : Fault.t option;
}

let default_config =
  { f_window_ms = 30_000.0; f_xeon_slots = 7; f_rpis = 3; f_rpi_slots_each = 3;
    f_evict = true; f_bytes_scale = 1.0; f_pause_budget = 50_000_000;
    f_transport = Transport.scp Dapper_net.Link.infiniband; f_fault = None }

let quantum_ms = 50.0

(* Node speeds are divided by this factor so that downscaled jobs take
   realistic multiples of the quantum (the Xeon interprets 1000
   instructions per simulated millisecond); relative speeds stand. *)
let speed_scale = 4200.0

(* Per-quantum interpreter safety cap. *)
let job_fuel = 50_000_000

type stats = {
  f_jobs_done : int;
  f_jobs_done_rpi : int;
  f_evictions : int;
  f_eviction_failures : int;
  f_eviction_retries : int;
  f_nodes_lost : int;
  f_recoveries : (string * int) list;
  f_migration_ms_total : float;
  f_energy_kj : float;
  f_jobs_per_kj : float;
  f_events : int;
}

exception Fleet_error of string

(* A failed eviction must give back exactly what it tentatively charged
   the victim slot — not wipe the slot's whole stall ledger. Stall debt
   can pre-date the attempt (e.g. an earlier inbound migration onto the
   same slot), and zeroing would forgive it. *)
let settle_failed_eviction ~owed_ms ~charged_ms =
  Float.max 0.0 (owed_ms -. charged_ms)

type running = {
  r_proc : Process.t;
  r_compiled : Link.compiled;
  r_started_quantum : int;
}

type slot = {
  s_idx : int;                 (** global slot index: xeons, then pis *)
  s_node : Node.t;
  mutable s_job : running option;
  mutable s_busy_ms : float;
  mutable s_stall_ms : float;  (** time owed (e.g. migration overhead) *)
  mutable s_dead : bool;       (** node killed by the fault plane *)
}

(* The engine's heap events. Each carries the quantum index it fires in;
   within a quantum, key order runs the boundary bookkeeping first, then
   eviction attempts in Pi-slot order, then slot advances in global slot
   order — the exact phase order of the old per-quantum scan. *)
type event =
  | Boundary       (** quantum boundary: refill Xeon slots, arm evictions *)
  | Evict of int   (** eviction attempt onto free Pi slot [i] *)
  | Advance of int (** advance the job on global slot [i] by one quantum *)

let key_boundary = 0
let key_evict i = 1 + i
let key_advance i = 1_000_000 + i

let run config (jobs : Link.compiled list) =
  if jobs = [] then raise (Fleet_error "no jobs");
  let jobs = Array.of_list jobs in
  let queue_pos = ref 0 in
  let next_job () =
    let j = jobs.(!queue_pos mod Array.length jobs) in
    incr queue_pos;
    j
  in
  let xeon_slots =
    Array.init config.f_xeon_slots (fun i ->
        { s_idx = i; s_node = Node.xeon; s_job = None; s_busy_ms = 0.0;
          s_stall_ms = 0.0; s_dead = false })
  in
  let rpi_slots =
    Array.init (config.f_rpis * config.f_rpi_slots_each) (fun i ->
        { s_idx = config.f_xeon_slots + i; s_node = Node.rpi; s_job = None;
          s_busy_ms = 0.0; s_stall_ms = 0.0; s_dead = false })
  in
  let done_total = ref 0 and done_rpi = ref 0 in
  let evictions = ref 0 and eviction_failures = ref 0 in
  let eviction_retries = ref 0 in
  let nodes_lost = ref 0 in
  let recoveries : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let recover app =
    Hashtbl.replace recoveries app
      (1 + Option.value ~default:0 (Hashtbl.find_opt recoveries app))
  in
  let migration_ms = ref 0.0 in
  let start_job slot quantum =
    let compiled = next_job () in
    let bin = Link.binary_for compiled slot.s_node.Node.n_arch in
    (* a fresh job owes nothing its predecessor may have left behind *)
    slot.s_stall_ms <- 0.0;
    slot.s_job <-
      Some { r_proc = Process.load bin; r_compiled = compiled; r_started_quantum = quantum }
  in
  let quanta = int_of_float (config.f_window_ms /. quantum_ms) in
  let all_slots = Array.append xeon_slots rpi_slots in
  let heap : (int * event) Event_heap.t = Event_heap.create () in
  let time_of q = float_of_int q *. quantum_ms in
  let push_ev q key ev = Event_heap.push heap ~key ~time:(time_of q) (q, ev) in
  let events = ref 0 in
  (* One eviction attempt onto free Pi slot [pi] during quantum [q] —
     the old per-quantum scan body, now fired as a heap event. The
     armed conditions are re-checked here; between arming (at the
     boundary) and firing, only earlier evictions of the same quantum
     run, and those never free a Xeon slot or touch another Pi. *)
  let attempt_eviction q pi =
    if
      pi.s_job = None && (not pi.s_dead)
      && Array.for_all (fun s -> s.s_job <> None) xeon_slots
    then
      (* the victim is the most recently started job (least sunk cost):
         the latest start wins, the first slot in slot order on ties *)
      let victim =
        Array.fold_left
          (fun best s ->
            match (best, s.s_job) with
            | Some (_, b), Some j when j.r_started_quantum <= b.r_started_quantum -> best
            | _, Some j -> Some (s, j)
            | _, None -> best)
          None xeon_slots
      in
      match victim with
      | None -> ()
      | Some (vs, job) ->
        let src_bin = Link.binary_for job.r_compiled Dapper_isa.Arch.X86_64 in
        let dst_bin = Link.binary_for job.r_compiled Dapper_isa.Arch.Aarch64 in
        let scfg =
          { (Session.default_config ~src_bin ~dst_bin) with
            Session.cfg_bytes_scale = config.f_bytes_scale;
            cfg_pause_budget = config.f_pause_budget;
            cfg_transport = config.f_transport;
            cfg_fault = config.f_fault }
        in
        (* the fault plane may kill the destination node outright
           mid-eviction: the node leaves the pool and the job — never
           having left the source — re-enters the queue of eviction
           candidates, to be retried on another node *)
        let node_killed =
          match Option.bind config.f_fault (fun f -> Fault.draw f Fault.Dest_node) with
          | Some Fault.Crash ->
            pi.s_dead <- true;
            incr nodes_lost;
            true
          | _ -> false
        in
        if node_killed then begin
          incr eviction_retries;
          recover job.r_compiled.Link.cp_app
        end
        else
          Trace.with_span ~cat:"fleet" "eviction"
            ~args:[ ("app", job.r_compiled.Link.cp_app) ]
          @@ fun _ ->
          (match Session.run scfg job.r_proc with
           | Ok st ->
             let r = Session.finish st in
             incr evictions;
             let cost = Session.total_ms r.Session.r_times in
             migration_ms := !migration_ms +. cost;
             (* the migration's cost stalls the destination slot; the
                victim slot hands its job over and owes nothing *)
             pi.s_stall_ms <- pi.s_stall_ms +. cost;
             pi.s_job <-
               Some { r_proc = r.Session.r_process; r_compiled = job.r_compiled;
                      r_started_quantum = q };
             vs.s_job <- None;
             start_job vs q;
             (* the destination starts progressing this same quantum,
                as the old advance pass gave it; the victim's pending
                advance covers its replacement job *)
             push_ev q (key_advance pi.s_idx) (Advance pi.s_idx)
           | Error e ->
             (* The session's rollback already resumed the source. A
                transient failure (drain budget exhausted, transfer
                timed out, node lost) leaves the job in place to
                retry at a later quantum — possibly on a different
                node; only structural failures count as lost
                evictions. Either way the recovery is charged to the
                job so flaky applications are visible per name. *)
             if Dapper_error.retriable e then incr eviction_retries
             else incr eviction_failures;
             recover job.r_compiled.Link.cp_app;
             (match job.r_proc.Process.exit_code with
              | Some _ ->
                (* the job finished during the pause *)
                incr done_total;
                vs.s_job <- None;
                start_job vs q
              | None ->
                (* no migration happened, so this attempt charged the
                   victim slot nothing — give back exactly that, not
                   the slot's whole stall ledger *)
                vs.s_stall_ms <-
                  settle_failed_eviction ~owed_ms:vs.s_stall_ms ~charged_ms:0.0))
  in
  (* Advance the job on slot [s] through quantum [q] — the old
     per-quantum progress pass, now one heap event per busy slot per
     quantum. A slot whose job survives the quantum reschedules its own
     advance; a freed slot goes quiet until the next boundary (Xeon) or
     eviction (Pi) gives it work again. *)
  let advance q s =
    match s.s_job with
    | None -> ()
    | Some job ->
      s.s_busy_ms <- s.s_busy_ms +. quantum_ms;
      (if s.s_stall_ms >= quantum_ms then s.s_stall_ms <- s.s_stall_ms -. quantum_ms
       else begin
         let effective_ms = quantum_ms -. s.s_stall_ms in
         s.s_stall_ms <- 0.0;
         let instrs =
           int_of_float
             (effective_ms *. s.s_node.Node.n_ops_per_ns *. 1e6
              /. speed_scale)
         in
         match Process.run job.r_proc ~max_instrs:(min instrs job_fuel) with
         | Process.Exited_run _ ->
           incr done_total;
           if s.s_node.Node.n_arch = Dapper_isa.Arch.Aarch64 then incr done_rpi;
           s.s_job <- None
         | Process.Crashed cr ->
           raise (Fleet_error ("job crashed: " ^ cr.Process.cr_reason))
         | Process.Progress -> ()
         | Process.Idle -> raise (Fleet_error "job deadlocked")
       end);
      if s.s_job <> None && q + 1 < quanta then
        push_ev (q + 1) (key_advance s.s_idx) (Advance s.s_idx)
  in
  (* Quantum boundary: refill every idle Xeon slot (the queue is
     infinite, so the fast tier never sits idle past a boundary), arm
     one eviction attempt per free live Pi slot, and schedule the next
     boundary. *)
  let boundary q =
    Array.iter
      (fun s ->
        if s.s_job = None then begin
          start_job s q;
          push_ev q (key_advance s.s_idx) (Advance s.s_idx)
        end)
      xeon_slots;
    if config.f_evict then
      Array.iter
        (fun pi ->
          if pi.s_job = None && not pi.s_dead then
            push_ev q (key_evict pi.s_idx) (Evict pi.s_idx))
        rpi_slots;
    if q + 1 < quanta then push_ev (q + 1) key_boundary Boundary
  in
  (* Drain the heap one quantum at a time, each quantum's events inside
     one trace span that accounts for [quantum_ms] of window wall time
     (an eviction's session spans may already have charged more). *)
  let rec run_quantum q =
    match Event_heap.peek heap with
    | Some (_, (q', ev)) when q' = q ->
      ignore (Event_heap.pop heap);
      incr events;
      (match ev with
       | Boundary -> boundary q
       | Evict i -> attempt_eviction q all_slots.(i)
       | Advance i -> advance q all_slots.(i));
      run_quantum q
    | _ -> ()
  in
  let rec drain () =
    match Event_heap.peek heap with
    | None -> ()
    | Some (_, (q, _)) ->
      Trace.with_span ~cat:"fleet" "quantum" ~args:[ ("q", string_of_int q) ]
        (fun cl ->
          Trace.set_dur cl (quantum_ms *. 1e6);
          run_quantum q);
      drain ()
  in
  if quanta > 0 then push_ev 0 key_boundary Boundary;
  drain ();
  let busy arch =
    Array.fold_left
      (fun acc s -> if s.s_node.Node.n_arch = arch then acc +. s.s_busy_ms else acc)
      0.0 all_slots
    /. 1000.0
  in
  let window_s = config.f_window_ms /. 1000.0 in
  let energy_j =
    (Node.xeon.Node.n_idle_w *. window_s)
    +. (Node.xeon.Node.n_core_w *. busy Dapper_isa.Arch.X86_64)
    +. (float_of_int config.f_rpis *. Node.rpi.Node.n_idle_w *. window_s)
    +. (Node.rpi.Node.n_core_w *. busy Dapper_isa.Arch.Aarch64)
  in
  { f_jobs_done = !done_total;
    f_jobs_done_rpi = !done_rpi;
    f_evictions = !evictions;
    f_eviction_failures = !eviction_failures;
    f_eviction_retries = !eviction_retries;
    f_nodes_lost = !nodes_lost;
    f_recoveries =
      List.sort compare
        (Hashtbl.fold (fun app n acc -> (app, n) :: acc) recoveries []);
    f_migration_ms_total = !migration_ms;
    f_energy_kj = energy_j /. 1000.0;
    f_jobs_per_kj = float_of_int !done_total /. (energy_j /. 1000.0);
    f_events = !events }
