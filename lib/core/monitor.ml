open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_machine

type pause_stats = {
  ps_instrs_drained : int64;
  ps_trapped : int;
  ps_rolled_back : int;
}

let default_budget = 50_000_000

(* Validate that a trapped thread sits at a checker trap: its pc must be
   the resume address of some equivalence point (the paper's defense
   against maliciously raised SIGTRAPs). *)
let validate_trap (p : Process.t) (th : Process.thread) =
  let pc = Process.pc th in
  match Stackmap.func_of_addr p.binary.bin_stackmaps pc with
  | None -> Error (Dapper_error.Not_at_equivalence_point (th.tid, pc))
  | Some fm ->
    (match Stackmap.eqpoint_by_resume fm pc with
     | Some _ -> Ok ()
     | None -> Error (Dapper_error.Not_at_equivalence_point (th.tid, pc)))

(* Roll a thread blocked inside a syscall wrapper back to the call-site
   equivalence point in its caller: pop the wrapper frame (frameless
   leaf) and point the pc at the call instruction, so the restored
   process simply re-executes the blocking call. *)
let rollback_blocked p (th : Process.thread) =
  let arch = p.Process.arch in
  let ret_addr, undo =
    match arch with
    | Arch.X86_64 ->
      let sp = Process.reg th (Arch.sp arch) in
      let ret = Process.peek_data p sp in
      (ret, fun () -> Process.set_reg th (Arch.sp arch) (Int64.add sp 8L))
    | Arch.Aarch64 -> (Process.reg th 30, fun () -> ())
  in
  match Stackmap.func_of_addr p.binary.bin_stackmaps ret_addr with
  | None -> Error (Dapper_error.Not_at_equivalence_point (th.tid, ret_addr))
  | Some fm ->
    (match Stackmap.eqpoint_by_resume fm ret_addr with
     | Some ep ->
       undo ();
       Process.set_pc th ep.Stackmap.ep_addr;
       th.status <- Process.Stopped;
       Ok ()
     | None -> Error (Dapper_error.Not_at_equivalence_point (th.tid, ret_addr)))

let request_pause (p : Process.t) ~budget =
  let flag = p.Process.binary.Binary.bin_anchors.a_flag in
  Process.poke_data p flag 1L;
  let drained = ref 0L in
  let trapped = ref 0 in
  let rolled = ref 0 in
  let remaining = ref budget in
  let result = ref None in
  let finish r = result := Some r in
  while !result = None do
    (* Park any thread already at a monitor-visible stop. *)
    List.iter
      (fun (th : Process.thread) ->
        match th.status with
        | Process.Trapped ->
          (match validate_trap p th with
           | Ok () ->
             th.status <- Process.Stopped;
             incr trapped
           | Error e -> finish (Error e))
        | Process.Blocked_join _ | Process.Blocked_lock _ ->
          (match rollback_blocked p th with
           | Ok () -> incr rolled
           | Error e -> finish (Error e))
        | Process.Runnable | Process.Stopped | Process.Exited _ -> ())
      p.Process.threads;
    if !result = None then begin
      let live = Process.live_threads p in
      if live = [] then finish (Error Dapper_error.Process_exited)
      else if
        List.for_all (fun (th : Process.thread) -> th.status = Process.Stopped) live
      then
        finish
          (Ok { ps_instrs_drained = !drained; ps_trapped = !trapped;
                ps_rolled_back = !rolled })
      else if !remaining <= 0 then finish (Error Dapper_error.Pause_budget_exhausted)
      else begin
        let chunk = min 100_000 !remaining in
        let before = p.Process.total_instrs in
        (match Process.run p ~max_instrs:chunk with
         | Process.Exited_run _ -> finish (Error Dapper_error.Process_exited)
         | Process.Crashed _ -> finish (Error Dapper_error.Process_exited)
         | Process.Progress | Process.Idle -> ());
        let used = Int64.sub p.Process.total_instrs before in
        drained := Int64.add !drained used;
        remaining := !remaining - max 1 (Int64.to_int used)
      end
    end
  done;
  match !result with
  | Some r -> r
  | None -> assert false

let resume (p : Process.t) =
  Process.poke_data p p.Process.binary.Binary.bin_anchors.a_flag 0L;
  List.iter
    (fun (th : Process.thread) ->
      match th.status with
      | Process.Stopped | Process.Trapped -> th.status <- Process.Runnable
      | Process.Runnable | Process.Blocked_join _ | Process.Blocked_lock _
      | Process.Exited _ -> ())
    p.Process.threads
