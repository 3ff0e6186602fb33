(* The exports of lib/ that only test/ reads, each with the reason it
   stays. bench/check_exports.ml fails on any other export that only
   test/ reads, on an entry here that no interface exports, and on one
   that a program reads. *)

let entries =
  [ ("Process.step_thread",
     "single-instruction step the translated-block tests compare whole runs against");
    ("Memory.fault_count", "page-fault counter a per-stage work ledger will read");
    ("Sustained.postpone_backoff_ms",
     "postpone backoff no golden sweep reaches (none postpones), pinned by its test") ]
