(** A simulated process: threads, memory, and the interpreter loop.

    A process executes the machine code of exactly one architecture. The
    Dapper runtime controls it through the ptrace-like API at the bottom
    of this interface (peek/poke memory and registers, thread statuses),
    mirroring how the real system drives a tracee (paper Section III-B/D2). *)

open Dapper_isa
open Dapper_binary

type thread_status =
  | Runnable
  | Blocked_join of int     (** waiting for a thread to exit *)
  | Blocked_lock of int64   (** waiting on the mutex at this address *)
  | Trapped                 (** executed the breakpoint; held by the monitor *)
  | Stopped                 (** SIGSTOP *)
  | Exited of int64

(** A thread's registers and pc, unboxed; read and written through
    {!reg}, {!set_reg}, {!pc} and {!set_pc}. *)
type regfile

type thread = {
  tid : int;
  regfile : regfile;
  mutable tls : int64;         (** TLS base register (FS base / TPIDR) *)
  mutable status : thread_status;
}

(** Registers in a thread's context, indexed by DWARF number: 33 on both
    ISAs, so a context is recoded in place. Core images and recoded
    contexts hold exactly this many. *)
val reg_count : int

(** [reg th r] is register [r] (a DWARF number); [Invalid_argument]
    unless [0 <= r < reg_count]. *)
val reg : thread -> int -> int64

val set_reg : thread -> int -> int64 -> unit

(** The pc, all 64 bits. *)
val pc : thread -> int64

val set_pc : thread -> int64 -> unit

(** A fresh array of the [reg_count] registers — a dump's view. *)
val regs_array : thread -> int64 array

(** [restored_thread ~tid ~regs ~pc ~tls] is a [Runnable] thread with
    this context — the restore path's one constructor. [Invalid_argument]
    unless [regs] has [reg_count] entries. *)
val restored_thread : tid:int -> regs:int64 array -> pc:int64 -> tls:int64 -> thread

type crash = { cr_tid : int; cr_pc : int64; cr_reason : string }

(** Tap on the process's nondeterministic inputs (the record/replay
    plane's hook). [nd_syscall] sees every {e completed} syscall's result
    value and returns the value actually written to the return register:
    a recorder returns it unchanged, a replayer validates it against a
    log or substitutes the logged value (the instruction-count clock is
    the one input that legally differs between a live and a replayed
    run). Blocked syscall attempts never reach the tap — the retry that
    completes does. The ["exit"] event is record-only: its value is
    program state and the returned value is ignored. [nd_sched] fires
    after every interpreter slice with the instructions the thread
    retired before the round-robin moved on — the interleaving decision
    a same-ISA replay reproduces (slice lengths are ISA-specific, so
    cross-ISA replay ignores them). *)
type nondet = {
  nd_syscall : tid:int -> sys:string -> int64 -> int64;
  nd_sched : tid:int -> steps:int -> unit;
}

(** Where a decoded pc's instruction sits in the interpreter's
    translated blocks. Internal to the interpreter. *)
type entry

type t = {
  arch : Arch.t;
  mem : Memory.t;
  binary : Binary.t;
  mutable threads : thread list;
  mutable next_tid : int;
  mutable brk : int64;
  stdout_buf : Buffer.t;
  mutable exit_code : int64 option;
  mutable crash : crash option;
  mutable total_instrs : int64;
      (** instructions retired by all threads. {!run} counts a slice's
          instructions locally, so the field is exact whenever {!run} or
          {!step_thread} returns and whenever a syscall executes (the
          clock syscall and the nondet tap read it), not mid-slice. *)
  mutable nondet : nondet option;  (** record/replay tap; [None] = untapped *)
  decode_cache : (int, entry) Hashtbl.t;
      (** every pc below 2^62 ever decoded, keyed by the pc as an [int].
          A block's straight-line run is decoded whole when a thread
          first reaches its start, so the count includes the rest of
          any block a thread stopped inside: at a pause point, at a
          crash, or when another thread ended the process. Nothing
          here is ever invalidated: a live process's code bytes never
          change after their first fetch, and DSU, rerandomization and
          migration restore into a fresh process whose caches start
          empty. *)
  entry_pcs : int array;
  entries : entry array;
      (** the interpreter's direct-mapped entry table in front of
          [decode_cache]: slot [s] holds pc [entry_pcs.(s)] and its
          [decode_cache] entry. Internal to the interpreter. *)
}

exception Exec_error of string

(** [load binary] maps the data sections, arranges demand paging for code
    pages, and creates the main thread poised at the entry symbol with the
    process-exit stub as its bottom-of-stack return target. *)
val load : Binary.t -> t

(** [reconstruct binary mem ~owed ~threads ~brk] assembles a process from
    restored state — the CRIU restore path. The caller is responsible for
    memory contents and thread register state. A page fault asks [owed]
    first: [Some page] means the migration source still owes the page,
    and [page] is what it served ([None] is a segfault); only on [None]
    does the fault fall through to the code and stack paging of
    [load]. *)
val reconstruct :
  Binary.t -> Memory.t -> owed:(int -> string option option) -> threads:thread list ->
  brk:int64 -> t

type run_result =
  | Progress   (** instruction budget exhausted, work remains *)
  | Idle       (** no runnable thread (all trapped/blocked/stopped) *)
  | Exited_run of int64
  | Crashed of crash

(** [run t ~max_instrs] interprets up to [max_instrs] instructions,
    round-robin across runnable threads. Deterministic. *)
val run : t -> max_instrs:int -> run_result

(** [run_to_completion t ~fuel] keeps running until exit, crash, idleness
    or the fuel limit. *)
val run_to_completion : t -> fuel:int -> run_result

val stdout_contents : t -> string
val thread : t -> int -> thread
val live_threads : t -> thread list

(** All threads quiescent at monitor-visible stop states (trapped,
    blocked, stopped or exited) — the condition for dumping. *)
val all_quiescent : t -> bool

(** Classification of mapped memory, used by the checkpointer and kept
    as each VMA's kind in the image's mm record. *)
type vma_kind = Vma_code | Vma_data | Vma_tls | Vma_heap | Vma_stack of int

val vma_kind_of_page : t -> int -> vma_kind option

(** The name CRIT's JSON and the replay log give a kind: ["code"],
    ["data"], ["tls"], ["heap"], or ["stack:N"] for thread [N]'s stack. *)
val vma_kind_name : vma_kind -> string

(** {1 Observable state}

    A read-only digest of everything a migration must preserve, taken
    without pausing, faulting pages in, or perturbing any accounting —
    the conformance oracle snapshots both execution twins with this. *)

type snapshot = {
  sn_data : int64;   (** FNV-1a digest of mapped data pages; the runtime
                         transformation-flag word is masked out *)
  sn_heap : int64;   (** digest of mapped heap pages *)
  sn_tls : int64;    (** digest of mapped TLS pages *)
  sn_brk : int64;
  sn_threads : int;  (** live (non-exited) threads *)
  sn_stdout : string;
  sn_exit : int64 option;
}

(** [observe t] digests the current observable state. Only mapped pages
    are read (via raw page contents, never the fault handler); code and
    stack pages are excluded because their bytes are ISA-specific. *)
val observe : t -> snapshot

(** [same_state a b] checks the ISA-independent state that
    [observe a] and [observe b] digest — brk, the live-thread count, and
    the data, heap and TLS pages — with the pages compared by number and
    bytes instead of through digests, each side's own flag word masked.
    Output and exit status are not compared: a migrated twin restarts
    with empty stdout. It hashes nothing, so unlike the digests it
    cannot collide. The two-phase commit's acknowledgement. *)
val same_state : t -> t -> bool

(** Per-page digests of exactly the pages {!observe} folds (data, heap
    and TLS; transformation-flag word masked), in page-number order —
    diffing two processes' lists names the pages behind a snapshot
    mismatch. *)
val observe_pages : t -> (vma_kind * int * int64) list

(** ptrace-like control interface. *)

val peek_data : t -> int64 -> int64
val poke_data : t -> int64 -> int64 -> unit

(** Raw single-step of one thread: one instruction through the same
    translated blocks as {!run}, counted as {!run} counts it. Used by
    tests only; the monitor drives processes with {!run}. *)
val step_thread : t -> thread -> unit
