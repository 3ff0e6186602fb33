(** HPC and legacy benchmarks from the paper's suite: Linpack (dense LU
    solve), Dhrystone (integer/string mix), and the K-means clustering
    application. *)

val linpack : unit -> Dapper_ir.Ir.modul
val dhrystone : unit -> Dapper_ir.Ir.modul
val kmeans : unit -> Dapper_ir.Ir.modul
