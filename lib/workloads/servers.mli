(** Server applications: a Redis-like in-memory key/value store and an
    Nginx-like HTTP request parser, both driven by deterministic
    synthetic client traffic (no sockets in the simulator; the request
    stream plays the role of the network, which preserves the code paths
    that matter for checkpoint size and stack shapes). *)

val redis : ?keys:int -> ?ops:int -> unit -> Dapper_ir.Ir.modul
val nginx : ?requests:int -> unit -> Dapper_ir.Ir.modul
