(** Transports: how a checkpoint image (and, for post-copy migration,
    individual pages) moves between nodes over a {!Link.t}.

    The two paper variants are {!scp} — the whole image is copied
    eagerly before restore — and {!page_server} — a minimal image is
    copied eagerly and memory pages are served on demand from the
    paused source (CRIU's lazy-pages protocol). Both share the same
    eager-transfer cost model; they differ in whether the destination
    may fetch pages back through {!fetch_page}.

    Two composable wrappers model imperfect links:

    - {!degraded} multiplies every cost by a factor (congestion, lossy
      link);
    - {!retrying} arms bounded retransmission with exponential backoff:
      {!transmit} and {!fetch_page} verify every payload against a
      checksum manifest ({!Bytebuf.word64}, a word-wide FNV fold) and
      retransmit dropped or corrupted payloads, charging each backoff to
      the deterministic simulated clock. Retries exhausted surface as
      the retriable [Dapper_error.Transfer_timeout].

    Both transmission entry points accept an optional {!Fault.t}
    schedule — the chaos plane decides which payloads are dropped,
    corrupted or delayed; the transport implements detection and
    recovery. *)

open Dapper_util

type t

(** Per-session page-server accounting: pages served on demand from the
    paused source, the cumulative network time they cost (including
    injected delays and retry backoff), and how many fetches had to be
    retransmitted. [srv_backoff_ns] breaks out the retry-backoff share
    of [srv_ns] (backoff is only ever charged when a retry follows).
    Allocate fresh per session
    ({!fresh_page_stats}); never share across sessions. *)
type page_stats = {
  mutable srv_pages : int;
  mutable srv_ns : float;
  mutable srv_retransmits : int;
  mutable srv_backoff_ns : float;
}

(** Per-session eager-transfer accounting. [tx_fault_ns] is the latency
    added by injected delays; [tx_backoff_ns] the latency added by
    retry backoff (charged only when a retry actually follows — never
    after the final failed attempt). Their sum is the "cost of chaos"
    over a clean transfer. *)
type tx_stats = {
  mutable tx_attempts : int;
  mutable tx_retransmits : int;
  mutable tx_corrupt : int;    (** checksum mismatches detected on arrival *)
  mutable tx_dropped : int;    (** transfers dropped mid-image *)
  mutable tx_fault_ns : float;
  mutable tx_backoff_ns : float;
}

(** Eager whole-image copy over [link]; no demand paging. *)
val scp : Link.t -> t

(** Lazy post-copy transport: eager copy of the minimal image over
    [link], remaining pages served on demand. *)
val page_server : Link.t -> t

(** [degraded ~factor t] costs [factor] times as much per transfer and
    per page fetch ([factor >= 1.0]; raises [Invalid_argument]
    otherwise). Composes: nested factors multiply and [name] reflects
    the nesting. *)
val degraded : factor:float -> t -> t

(** [retrying t] arms bounded retransmission: up to [attempts] tries per
    transfer / per page (default 4), with a 2 ms backoff that doubles
    between tries, charged to the simulated clock. [jitter] seeds a
    decorrelation stream: each charged backoff is the exponential
    envelope scaled by a seeded uniform factor in [0.5, 1.5), so retries
    from transports armed with different seeds never resynchronize
    while the whole schedule stays replayable from the seed. Without
    [jitter] the backoff is the exact deterministic doubling. Raises
    [Invalid_argument] for [attempts < 1]. *)
val retrying : ?attempts:int -> ?jitter:int64 -> t -> t

val name : t -> string
val link : t -> Link.t

(** True when the transport serves pages on demand (restore should
    install a page source and defer full memory materialization). *)
val is_lazy : t -> bool

(** Nanoseconds to move [bytes] of eager image over this transport. *)
val transfer_ns : t -> int -> float

val fresh_page_stats : unit -> page_stats
val fresh_tx_stats : unit -> tx_stats

(** [transmit t ~stats ~bytes files] moves the named image files over
    the transport, simulating the wire. Each file is a list of byte
    strings sent in order, so a page table goes as its pages and is
    never concatenated. Each file may be dropped, corrupted or delayed
    by the [fault] schedule. A corruption flips one byte on a copy of
    the part it hits (see {!Fault.corrupt_parts}), so [files] is never
    changed and may share its strings with a live image. Arrival is
    verified against a sender-side manifest of {!Bytebuf.word64}
    digests; failed attempts are retransmitted within the retry
    policy's bound with exponential backoff. Returns the total
    nanoseconds spent (transfer cost + injected delays + backoff); the
    delivered files are [files] themselves. [bytes] prices the wire and
    need not be the files' length. Errors: [Transfer_timeout] (retries
    exhausted — retriable) or [Checksum_mismatch] (corruption detected,
    no retry policy armed — retriable at the session level). *)
val transmit :
  t ->
  ?fault:Fault.t ->
  stats:tx_stats ->
  bytes:int ->
  (string * string list) list ->
  (float, Dapper_error.t) result

(** {1 Chunked producer/consumer pipelining}

    The overlap cost model behind the session's pipelined transfer
    stage: recode produces the image in fixed-size chunks and the wire
    consumes each chunk as soon as it is ready, so recode time hides
    under transmission on the simulated clock. *)

(** One chunk of the pipelined schedule: when its recode slice finished
    ([ck_ready_ns]), when the wire started sending it ([ck_start_ns] =
    max of ready and wire-free time) and its wire time ([ck_tx_ns],
    which includes the link's per-transfer latency — chunking overhead
    is modeled, not hidden). All times relative to recode start. *)
type chunk = {
  ck_index : int;
  ck_bytes : int;
  ck_ready_ns : float;
  ck_start_ns : float;
  ck_tx_ns : float;
}

type pipe_stats = {
  pp_chunks : int;
  pp_wire_ns : float;      (** wire busy time: sum of per-chunk costs *)
  pp_makespan_ns : float;  (** recode start to last chunk delivered *)
  pp_exposed_ns : float;   (** [makespan - recode]: transfer cost left
                               visible once recode hides under the wire *)
  pp_hidden_ns : float;    (** recode time hidden under transmission *)
  pp_schedule : chunk list;
}

(** Pure two-stage pipeline makespan over the simulated clock. With one
    chunk ([chunk_bytes >= bytes]) the schedule degenerates to the
    sequential pipeline exactly: [pp_exposed_ns = transfer_ns t bytes]
    and [pp_hidden_ns = 0]. Invariants: [pp_exposed_ns] is at least the
    last chunk's wire time (the wire cannot finish before the producer),
    and [pp_hidden_ns <= min recode_ns pp_wire_ns]. Raises
    [Invalid_argument] for negative [bytes]/[recode_ns] or
    [chunk_bytes < 1]. *)
val pipeline_schedule :
  t -> bytes:int -> chunk_bytes:int -> recode_ns:float -> pipe_stats

(** [fetch_page t stats ~page_bytes fetch pn] is one fault-aware,
    checksummed post-copy page fetch with bounded retransmission: the
    lazy restore's page source (with no [fault], so it cannot fail) and
    the session's commit drain. A served page counts in
    [stats.srv_pages]; a clean fetch charges one [page_fetch_ns t
    page_bytes] to [stats.srv_ns]. [Ok None] means
    the source genuinely has no such page (not a fault). Errors:
    [Source_lost] when the fault plane crashes the source's page server
    (the migration must roll back), [Transfer_timeout] when retries are
    exhausted. Raises [Invalid_argument] if [t] is not lazy. *)
val fetch_page :
  t ->
  ?fault:Fault.t ->
  page_stats ->
  page_bytes:int ->
  (int -> bytes option) ->
  int ->
  (bytes option, Dapper_error.t) result

(** [fetch_stall_ns t ?fault ~page_bytes ()] samples the latency one
    demand page fetch would charge — round trips, injected delays, and
    retry backoff, mirroring {!fetch_page}'s accounting — without
    touching page contents or stats. The live-traffic plane charges
    millions of request stalls through this. Deterministic for a given
    fault-schedule position; corrupt draws count as retransmissions
    (the cost model ignores {!fetch_page}'s empty-payload lucky case);
    a final failed attempt still costs its round trip. Raises
    [Invalid_argument] if [t] is not lazy. *)
val fetch_stall_ns : t -> ?fault:Fault.t -> page_bytes:int -> unit -> float
