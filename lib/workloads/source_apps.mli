(** Workloads written in clite {e source text} and compiled through the
    textual front-end ({!Dapper_clite.Parse}), exercising the full
    source-to-migration pipeline. *)

val nbody : unit -> Dapper_ir.Ir.modul
