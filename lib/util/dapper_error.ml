type stage = Pause | Dump | Recode | Transfer | Restore | Commit

let stage_name = function
  | Pause -> "pause"
  | Dump -> "dump"
  | Recode -> "recode"
  | Transfer -> "transfer"
  | Restore -> "restore"
  | Commit -> "commit"

type t =
  | Pause_budget_exhausted
  | Not_at_equivalence_point of int * int64
  | Process_exited
  | Dump_failed of string
  | Unwind_failed of string
  | Recode_failed of string
  | Shuffle_failed of string
  | Layout_incompatible of string
  | Active_function of string
  | Transfer_timeout of string
  | Checksum_mismatch of string
  | Restore_failed of string
  | Source_lost of string
  | Commit_failed of string
  | Verify_failed of string
  | Deadline_exceeded of stage * float

let to_string = function
  | Pause_budget_exhausted -> "drain budget exhausted before all threads quiesced"
  | Not_at_equivalence_point (tid, pc) ->
    Printf.sprintf "thread %d stopped at 0x%Lx, not an equivalence point" tid pc
  | Process_exited -> "process exited during pause"
  | Dump_failed msg -> "dump failed: " ^ msg
  | Unwind_failed msg -> "unwind failed: " ^ msg
  | Recode_failed msg -> "recode failed: " ^ msg
  | Shuffle_failed msg -> "shuffle failed: " ^ msg
  | Layout_incompatible msg -> "layout incompatible: " ^ msg
  | Active_function f -> "function still active on a stack: " ^ f
  | Transfer_timeout msg -> "transfer timed out: " ^ msg
  | Checksum_mismatch msg -> "checksum mismatch: " ^ msg
  | Restore_failed msg -> "restore failed: " ^ msg
  | Source_lost msg -> "source lost: " ^ msg
  | Commit_failed msg -> "commit failed: " ^ msg
  | Verify_failed msg -> "verification failed: " ^ msg
  | Deadline_exceeded (st, ms) ->
    Printf.sprintf "deadline exceeded: %s projected %.2f ms over budget"
      (stage_name st) ms

let stage_of = function
  | Pause_budget_exhausted | Not_at_equivalence_point _ | Process_exited -> Pause
  | Dump_failed _ -> Dump
  | Unwind_failed _ | Recode_failed _ | Shuffle_failed _ | Layout_incompatible _
  | Active_function _ | Verify_failed _ -> Recode
  | Transfer_timeout _ | Checksum_mismatch _ -> Transfer
  | Restore_failed _ -> Restore
  | Source_lost _ | Commit_failed _ -> Commit
  | Deadline_exceeded (st, _) -> st

(* Exhaustive on purpose: adding an error constructor must force a
   decision here (no wildcard), because a misclassification either
   retries a structural failure forever or abandons a recoverable one. *)
let retriable = function
  | Pause_budget_exhausted -> true
  | Deadline_exceeded _ -> true
  | Active_function _ -> true
  | Transfer_timeout _ -> true
  | Checksum_mismatch _ -> true
  | Not_at_equivalence_point _ -> false
  | Process_exited -> false
  | Dump_failed _ -> false
  | Unwind_failed _ -> false
  | Recode_failed _ -> false
  | Shuffle_failed _ -> false
  | Layout_incompatible _ -> false
  | Restore_failed _ -> false
  | Source_lost _ -> false
  | Commit_failed _ -> false
  | Verify_failed _ -> false

exception Error of t

let () =
  Printexc.register_printer (function
    | Error t -> Some (Printf.sprintf "Dapper_error.Error(%s)" (to_string t))
    | _ -> None)

let raise_error t = raise (Error t)
let failf wrap fmt = Printf.ksprintf (fun s -> raise_error (wrap s)) fmt

let protect f = match f () with v -> Ok v | exception Error t -> Error t

let ok_exn = function Ok v -> v | Error e -> raise_error e
