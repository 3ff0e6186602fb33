(** NAS Parallel Benchmark kernels (serial version), written in clite and
    downscaled for the simulator; [cls] selects the problem class
    (A = 1x, B = 4x), mirroring the paper's evaluation setup. Each kernel
    prints a deterministic checksum so migrated and native runs can be
    compared byte-for-byte. *)

type cls = A | B

val scale : cls -> int

val ep : cls -> Dapper_ir.Ir.modul  (* embarrassingly parallel (gaussian pairs) *)
val cg : cls -> Dapper_ir.Ir.modul  (* conjugate gradient *)
val mg : cls -> Dapper_ir.Ir.modul  (* multigrid V-cycles *)
val ft : cls -> Dapper_ir.Ir.modul  (* radix-2 FFT *)
val is_ : cls -> Dapper_ir.Ir.modul (* integer (counting) sort *)
