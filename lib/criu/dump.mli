(** Checkpoint: freeze a quiescent process into an image set.

    Following CRIU's behaviour, clean code pages are not dumped — only
    the execution context (the page(s) containing each thread's program
    counter) is included, since other code pages reload from the binary
    on demand (paper Section III-C).

    In lazy (post-copy) mode only the task state, stack pages and the
    execution context are dumped; all other pages stay on the source
    node and are listed in the pagemap as lazy, to be served by a page
    server after restore (paper Section III-D3). *)

open Dapper_util
open Dapper_machine

(** Returns [Error (Dapper_error.Dump_failed _)] if some thread is still
    runnable (the runtime monitor must quiesce the process first). *)
val dump :
  ?lazy_pages:bool -> Process.t -> (Images.image_set, Dapper_error.t) result

(** Statistics used by the cost model. *)
type stats = { pages_dumped : int; pages_lazy : int }

val stats_of : Images.image_set -> stats
