(** The example corpus: miniature twins of the [examples/] programs.

    Each entry reproduces the program shape of one bundled example —
    the quickstart call-in-a-loop, the textual-frontend Monte-Carlo pi
    estimator, plus a deep-recursion and an array/pointer workload — at
    a size where the oracle's every-equivalence-point migration sweep
    (quadratic in dynamic equivalence points: each point is reached by
    replaying from a fresh load) stays cheap enough for the tier-1
    suite. Each program is compiled once per process
    ({!Dapper_codegen.Link.memoized}). *)

val all : unit -> (string * Dapper_codegen.Link.compiled) list

val find : string -> Dapper_codegen.Link.compiled option
