open Dapper_util
open Dapper_machine
open Dapper_binary

type t =
  | Identity
  | Cross_isa of Binary.t
  | Reshuffle of Rng.t
  | Software_update of Binary.t

type applied = {
  ap_process : Process.t;
  ap_binary : Binary.t;
}

let ( let* ) = Result.bind

let ensure_paused p =
  if Process.all_quiescent p then Ok ()
  else
    match Monitor.request_pause p ~budget:Monitor.default_budget with
    | Ok _ -> Ok ()
    | Error _ as e -> e

let apply ?report p ~current policy =
  match policy with
  | Software_update new_bin ->
    (* Dsu handles its own pause so it can refuse before transforming. *)
    (match Dsu.update p ~old_bin:current ~new_bin with
     | Ok q -> Ok { ap_process = q; ap_binary = new_bin }
     | Error e -> Error e)
  | Identity | Cross_isa _ | Reshuffle _ ->
    let* () = ensure_paused p in
    let* image = Dapper_criu.Dump.dump p in
    let* dst =
      match policy with
      | Identity -> Ok current
      | Cross_isa b -> Ok b
      | Reshuffle rng ->
        (match Shuffle.shuffle_binary rng current with
         | b, _ -> Ok b
         | exception Shuffle.Shuffle_error msg ->
           Error (Dapper_error.Shuffle_failed msg))
      | Software_update _ -> assert false
    in
    let* image', rw = Rewrite.rewrite image ~src:current ~dst in
    (match report with Some f -> f rw | None -> ());
    let* q = Dapper_criu.Restore.restore image' dst in
    Ok { ap_process = q; ap_binary = dst }

let rerandomize_periodically ?report p ~current ~rng ~interval ~epochs =
  let rec go state epoch =
    if epoch >= epochs then Ok (state, epoch)
    else begin
      match Process.run state.ap_process ~max_instrs:interval with
      | Process.Exited_run _ | Process.Crashed _ | Process.Idle -> Ok (state, epoch)
      | Process.Progress ->
        let report = Option.map (fun f -> f epoch) report in
        (match apply ?report state.ap_process ~current:state.ap_binary (Reshuffle rng) with
         | Ok state' -> go state' (epoch + 1)
         | Error e -> Error e)
    end
  in
  go { ap_process = p; ap_binary = current } 0
