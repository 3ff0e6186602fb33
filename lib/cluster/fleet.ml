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
}

let default_config =
  { f_window_ms = 30_000.0; f_xeon_slots = 7; f_rpis = 3; f_rpi_slots_each = 3;
    f_evict = true; f_bytes_scale = 1.0; f_pause_budget = Dapper.Monitor.default_budget }

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
  f_recoveries : (string * int) list;
  f_migration_ms_total : float;
  f_energy_kj : float;
  f_jobs_per_kj : float;
}

exception Fleet_error of string

type running = {
  r_proc : Process.t;
  r_compiled : Link.compiled;
  r_started_quantum : int;
}

type slot = {
  s_node : Node.t;
  mutable s_job : running option;
  mutable s_busy_ms : float;
  mutable s_stall_ms : float;  (** time owed (e.g. migration overhead) *)
}

let run config (jobs : Link.compiled list) =
  if jobs = [] then raise (Fleet_error "no jobs");
  let jobs = Array.of_list jobs in
  let queue_pos = ref 0 in
  let next_job () =
    let j = jobs.(!queue_pos mod Array.length jobs) in
    incr queue_pos;
    j
  in
  let new_slot node =
    { s_node = node; s_job = None; s_busy_ms = 0.0; s_stall_ms = 0.0 }
  in
  let xeon_slots = Array.init config.f_xeon_slots (fun _ -> new_slot Node.xeon) in
  let rpi_slots =
    Array.init (config.f_rpis * config.f_rpi_slots_each) (fun _ -> new_slot Node.rpi)
  in
  let done_total = ref 0 and done_rpi = ref 0 in
  let evictions = ref 0 and eviction_failures = ref 0 in
  let eviction_retries = ref 0 in
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
  (* One eviction attempt onto Pi slot [pi] during quantum [q]: only
     when [pi] is free and every Xeon slot is busy. *)
  let attempt_eviction q pi =
    if pi.s_job = None && Array.for_all (fun s -> s.s_job <> None) xeon_slots then
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
            cfg_pause_budget = config.f_pause_budget }
        in
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
           start_job vs q
         | Error e ->
           (* The session's rollback already resumed the source. A
              transient failure (drain budget exhausted) leaves the job
              in place to retry at a later quantum; only structural
              failures count as lost evictions. Either way the recovery
              is charged to the job so flaky applications are visible
              per name. *)
           if Dapper_error.retriable e then incr eviction_retries
           else incr eviction_failures;
           recover job.r_compiled.Link.cp_app;
           (match job.r_proc.Process.exit_code with
            | Some _ ->
              (* the job finished during the pause *)
              incr done_total;
              vs.s_job <- None;
              start_job vs q
            | None -> ()))
  in
  let advance s =
    match s.s_job with
    | None -> ()
    | Some job ->
      s.s_busy_ms <- s.s_busy_ms +. quantum_ms;
      if s.s_stall_ms >= quantum_ms then s.s_stall_ms <- s.s_stall_ms -. quantum_ms
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
      end
  in
  (* Each quantum, inside one trace span that accounts for [quantum_ms]
     of window wall time (an eviction's session spans may already have
     charged more): refill every idle Xeon slot (the queue is infinite,
     so the fast tier never sits idle past a quantum), try one eviction
     per free Pi slot in slot order, then advance every busy slot in
     global slot order. *)
  for q = 0 to quanta - 1 do
    Trace.with_span ~cat:"fleet" "quantum" ~args:[ ("q", string_of_int q) ]
      (fun cl ->
        Trace.set_dur cl (quantum_ms *. 1e6);
        Array.iter (fun s -> if s.s_job = None then start_job s q) xeon_slots;
        if config.f_evict then Array.iter (attempt_eviction q) rpi_slots;
        Array.iter advance all_slots)
  done;
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
    f_recoveries =
      List.sort compare
        (Hashtbl.fold (fun app n acc -> (app, n) :: acc) recoveries []);
    f_migration_ms_total = !migration_ms;
    f_energy_kj = energy_j /. 1000.0;
    f_jobs_per_kj = float_of_int !done_total /. (energy_j /. 1000.0) }
