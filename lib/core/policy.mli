(** Periodic re-randomization of the stack layout (paper Section III:
    "periodically re-randomizing the function call stack"), the
    moving-target-defense policy: a process alternates bursts of
    execution with reshuffles, each a pause, a dump, a rewrite for a
    freshly shuffled binary ({!Shuffle.shuffle_binary}) and a restore.
    Cross-ISA migration runs through {!Session.run}, and software
    updates through {!Dsu.update}. *)

open Dapper_util
open Dapper_machine
open Dapper_binary

type applied = {
  ap_process : Process.t;
  ap_binary : Binary.t;   (** the binary the new process runs under *)
}

(** [rerandomize_periodically p ~current ~rng ~interval ~epochs]
    alternates bursts of [interval] instructions with reshuffles of [p],
    which runs under [current]. [report] is called with each epoch's
    rewrite statistics (including plan-cache and lookup counters).
    Returns the final state and the number of completed epochs (the
    process may exit early). Failures are pause errors, pipeline errors
    ([Dump_failed], [Recode_failed], ...) and [Shuffle_failed]. *)
val rerandomize_periodically :
  ?report:(int -> Rewrite.stats -> unit) ->
  Process.t -> current:Binary.t -> rng:Rng.t -> interval:int -> epochs:int ->
  (applied * int, Dapper_error.t) result
