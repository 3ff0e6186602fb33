open Dapper_util
open Dapper_machine
open Dapper_binary

type applied = {
  ap_process : Process.t;
  ap_binary : Binary.t;
}

let ( let* ) = Result.bind

(* One reshuffle: pause [p] (if not already quiescent), dump it, rewrite
   the image for a freshly shuffled [current], hand the rewrite's
   statistics to [report], and restore the image there. *)
let reshuffle p ~current rng ~report =
  let* () =
    if Process.all_quiescent p then Ok ()
    else Result.map ignore (Monitor.request_pause p ~budget:Monitor.default_budget)
  in
  let* image = Dapper_criu.Dump.dump p in
  let* dst =
    match Shuffle.shuffle_binary rng current with
    | b, _ -> Ok b
    | exception Shuffle.Shuffle_error msg -> Error (Dapper_error.Shuffle_failed msg)
  in
  let* image', rw = Rewrite.rewrite image ~src:current ~dst in
  report rw;
  let* q = Dapper_criu.Restore.restore image' dst in
  Ok { ap_process = q; ap_binary = dst }

let rerandomize_periodically ?report p ~current ~rng ~interval ~epochs =
  let rec go state epoch =
    if epoch >= epochs then Ok (state, epoch)
    else begin
      match Process.run state.ap_process ~max_instrs:interval with
      | Process.Exited_run _ | Process.Crashed _ | Process.Idle -> Ok (state, epoch)
      | Process.Progress ->
        let report rw = Option.iter (fun f -> f epoch rw) report in
        let* state' = reshuffle state.ap_process ~current:state.ap_binary rng ~report in
        go state' (epoch + 1)
    end
  in
  go { ap_process = p; ap_binary = current } 0
