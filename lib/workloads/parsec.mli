(** PARSEC-style multi-threaded C applications (paper Fig. 6): option
    pricing (blackscholes), Monte-Carlo swaption pricing (swaptions) and
    online clustering (streamcluster). Each spawns four workers that
    partition the input and reduce under a mutex. *)

val blackscholes : unit -> Dapper_ir.Ir.modul
val swaptions : unit -> Dapper_ir.Ir.modul
val streamcluster : unit -> Dapper_ir.Ir.modul
