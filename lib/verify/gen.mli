(** Deterministic seeded clite program generator.

    Every program is fully determined by its integer seed (an explicit
    {!Dapper_util.Rng} splitmix64 stream — no ambient randomness), so a
    failing seed reproduces forever and the qcheck corpus is stable
    across runs and machines. Generated programs exercise the features
    migration must preserve: recursion, bounded loops, mixed
    int/float/pointer locals, memset-initialized local arrays indexed
    through pointer locals, globals and a TLS counter, and calls through
    both calling conventions (direct, indirect via a function pointer,
    and float-returning). Division, shifts and array indices are masked
    so every program terminates with defined behaviour; the [Clock]
    syscall is never emitted because its result depends on retired
    instructions, which a pause perturbs. *)

(** [compile seed] compiles the seed's program for both ISAs, once per
    process ({!Dapper_codegen.Link.memoized}). *)
val compile : int -> Dapper_codegen.Link.compiled
