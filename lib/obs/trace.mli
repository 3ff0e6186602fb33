(** Structured tracing on the simulated clock.

    A trace is a stream of nested spans recorded by instrumentation
    threaded through the migration pipeline (session stages, transport
    transmits and retries, rewrite/recode, fleet quanta, chaos seeds).
    Timestamps come from a {e simulated} clock that advances only when
    instrumentation charges modeled nanoseconds ({!advance}) or a span
    closes with an explicit modeled duration ({!set_dur}, {!leaf}) —
    never from the wall clock — so a trace is a deterministic, pure
    function of the work performed: two replays of the same seeded run
    export byte-identical traces.

    There are two ways to record a span: {!with_span} around the code
    it covers, and {!leaf} for a childless span of known cost.

    Tracing is off by default and every operation is a cheap no-op
    while disabled (one flag test); enable with {!start}, then export
    with {!export} (Chrome [trace_event] JSON, loadable in
    [chrome://tracing] / Perfetto) or {!flame_summary} (plain text).

    The sink is global and single-threaded, matching the simulator. *)

type phase = Begin | End

type event = {
  ev_phase : phase;
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : float;  (** simulated-clock timestamp *)
  ev_args : (string * string) list;
}

(** Reset the sink and enable recording. *)
val start : unit -> unit

(** Disable recording, keeping the buffer for export. *)
val stop : unit -> unit

val enabled : unit -> bool

(** Charge [ns] of modeled time to the simulated clock (attributed to
    the innermost open span). Negative charges are ignored. *)
val advance : float -> unit

(** [leaf name ~dur_ns]: a childless span of a known modeled cost,
    opened at the current time and closed [dur_ns] later. *)
val leaf :
  ?cat:string -> ?args:(string * string) list -> string -> dur_ns:float -> unit

(** {2 Spans around code}

    [with_span name f] runs [f] inside a span nested in the innermost
    open one. Sites that only know the span's modeled duration or
    closing args at the end hand them to the [closer] ({!set_dur},
    {!add_arg}), and the span closes exactly once on every exit path.
    If [f] raises, the span closes with an [("exception", ...)] arg
    appended and the exception is re-raised with its backtrace
    intact. *)

type closer

(** Set the span's modeled duration (ns), applied at close: the clock
    moves to at least [begin + ns] (children that already charged more
    keep the clock — it never goes backwards). Last call wins. *)
val set_dur : closer -> float -> unit

(** Append one closing arg (recorded on the span's End event, in call
    order). *)
val add_arg : closer -> string -> string -> unit

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (closer -> 'a) -> 'a

(** Recorded events, oldest first. *)
val events : unit -> event list

(** Write the buffer to [file] as Chrome [trace_event] JSON (duration
    events, ts in microseconds). *)
val export : file:string -> unit

(** Plain-text flame summary: per span name, count, total and self time
    in ms, sorted by total descending. *)
val flame_summary : unit -> string
