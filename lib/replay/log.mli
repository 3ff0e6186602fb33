(** The recording of one process execution's nondeterministic inputs.

    An rr-style log (PAPERS.md: "Engineering Record And Replay For
    Deployability", "Lightweight User-Space Record And Replay"): instead
    of checkpointing state, record only the inputs that are not a pure
    function of the program — completed syscall results, the scheduler's
    interleaving decisions, and traffic arrival draws — and interleave
    them with an equivalence-point snapshot stream so a replay can be
    checked pointwise, not just at the end.

    A log is serialized like any other CRIU-style image section: one
    protobuf message ({!Dapper_proto.Proto} wire format) under the
    {!file_name} entry, versioned and content-checksummed with the
    tree's canonical FNV-1a digest — a flipped byte anywhere in the
    entry stream fails {!decode}. The full stdout is checked against the
    prefix lengths and digests the entry stream's anchors record, and
    against the final anchor's. The exit code and the final anchor's
    snapshot and page digests lie outside the checksum and stay
    unchecked until a format version adds them to it.

    Entry kinds:
    - [Syscall]: one completed syscall's result value, in completion
      order. ISA-independent for the single-threaded programs the
      oracle admits (the syscall sequence is a function of the program),
      which is what makes cross-ISA replay possible. The clock result is
      the one genuinely nondeterministic value: a replayer substitutes
      it instead of validating it.
    - [Sched]: one round-robin slice — thread id and instructions
      retired. Instruction counts are ISA-specific, so these entries
      are validated by same-ISA replay only.
    - [Arrival]: one open-loop traffic arrival draw (milliseconds) —
      the load plane's nondeterministic input, so a recorded serving
      process and its request stream replay from one log.
    - [Eqpoint]: the {!Dapper_machine.Process.observe} snapshot at a
      dynamic equivalence point, plus per-page digests and per-thread
      frame summaries — the divergence-localization anchors shadow
      replay compares against. *)

open Dapper_isa

type frame_info = {
  fi_func : string;  (** function name (cross-ISA identity) *)
  fi_ep : int;       (** equivalence-point id within the function *)
  fi_depth : int;    (** 0 = innermost *)
}

type thread_frames = {
  tf_tid : int;
  tf_frames : frame_info list;  (** innermost first *)
}

type page_digest = {
  pd_kind : string;   (** "data", "heap" or "tls" *)
  pd_page : int;      (** virtual page number *)
  pd_digest : int64;  (** FNV-1a of the page (flag word masked) *)
}

type eqpoint = {
  eq_index : int;        (** dynamic equivalence-point index, 0-based *)
  eq_data : int64;       (** {!Dapper_machine.Process.snapshot} digests *)
  eq_heap : int64;
  eq_tls : int64;
  eq_brk : int64;
  eq_threads : int;
  eq_stdout_len : int;   (** bytes of stdout produced so far *)
  eq_stdout_fnv : int64; (** FNV-1a of that prefix *)
  eq_stacks : thread_frames list;  (** sorted by tid *)
  eq_pages : page_digest list;     (** page-number order *)
}

type entry =
  | Syscall of { sc_tid : int; sc_sys : string; sc_ret : int64 }
  | Sched of { sd_tid : int; sd_steps : int }
  | Arrival of { ar_ms : float }
  | Eqpoint of eqpoint

type t = {
  lg_version : int;
  lg_app : string;
  lg_arch : Arch.t;        (** ISA the recording ran on *)
  lg_entries : entry list; (** program order *)
  lg_exit : int64;         (** final exit code *)
  lg_stdout : string;      (** full final stdout (every [eq_stdout_len]
                               is a prefix length into this) *)
  lg_final : eqpoint;      (** snapshot after exit; [eq_index] is the
                               number of equivalence points recorded *)
}

exception Log_error of string

val version : int

(** File name of the log's image-section entry, named like a dump's
    image files. *)
val file_name : string

(** Number of [Eqpoint] entries. *)
val points : t -> int

(** The [k]-th (0-based) recorded equivalence point. Raises [Log_error]
    if the log has fewer points. *)
val point : t -> int -> eqpoint

(** Serialize to the versioned, checksummed wire form. *)
val encode : t -> string

(** Parse and verify. Raises {!Log_error} on malformed bytes, an
    unsupported version, an entry-stream checksum mismatch, or a stdout
    that disagrees with an anchor's prefix length or digest. *)
val decode : string -> t

val entry_to_string : entry -> string
val summary : t -> string
