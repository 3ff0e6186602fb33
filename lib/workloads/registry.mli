(** The benchmark registry: one entry per application the paper
    evaluates, compiled once per process through {!Link.memoized}. *)

open Dapper_codegen

type spec = {
  sp_name : string;
  sp_modul : Dapper_ir.Ir.modul Lazy.t;
}

(** All benchmarks at their default (class-A-like) sizes. *)
val all : unit -> spec list

val find : string -> spec

(** Compile (once) a spec with the default backend options. *)
val compiled : spec -> Link.compiled
