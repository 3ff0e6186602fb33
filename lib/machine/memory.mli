(** Page-granular simulated memory with demand paging.

    Reads and writes may cross page boundaries. Accessing an unmapped
    page consults the fault handler (used both for demand-loading code
    pages from the binary — CRIU does not dump clean code pages — and for
    lazy post-copy migration, where missing pages are fetched from the
    source node's page server).

    A small direct-mapped cache of recently used pages sits in front of
    the page table, so a hit costs no hashing; [map_page] keeps it
    coherent. *)

type t

exception Segfault of int64

(** [create ()] has no pages mapped and no fault handler. *)
val create : unit -> t

(** The handler receives the page number and returns the page contents,
    or [None] to signal a true segfault. *)
val set_fault_handler : t -> (int -> bytes option) option -> unit

(** Number of pages the fault handler was invoked for (successfully). *)
val fault_count : t -> int

val map_page : t -> int -> bytes -> unit
val is_mapped : t -> int -> bool

(** Mapped page numbers in increasing order, as a freshly sorted array
    (monomorphic [Int.compare], no per-element closure or intermediate
    list). Snapshot callers that immediately iterate should prefer this
    over {!mapped_pages}. *)
val page_numbers : t -> int array

(** Mapped page numbers in increasing order. *)
val mapped_pages : t -> int list

(** Raw page contents (without triggering the fault handler). *)
val page_contents : t -> int -> bytes option

(** {2 Dirty-page tracking}

    Iterative pre-copy needs to know which pages were written between
    transfer rounds. Tracking is off by default (and costs one branch per
    write when off); [track_dirty t true] starts tracking into a fresh
    empty set, [track_dirty t false] stops and drops the set. Writes and
    [map_page] mark pages; reads — including fault-handler demand loads,
    whose contents are reproducible on the destination — do not. *)

val track_dirty : t -> bool -> unit

(** Pages written since tracking started or the last [clear_dirty], in
    increasing order. Empty when tracking is off. *)
val dirty_pages : t -> int list

(** Empty the dirty set, keeping tracking on. *)
val clear_dirty : t -> unit

(** [cached_page t pn] is page [pn]'s bytes if the page cache holds it,
    else [Bytes.empty]. It never faults, fills the cache or marks a page
    dirty: a caller that gets [Bytes.empty] must take [read_*]. The
    interpreter reads page bytes through it without passing a boxed
    [int64] across the module boundary. *)
val cached_page : t -> int -> bytes

(** As {!cached_page}, for a write the caller makes in place: also
    [Bytes.empty] while dirty pages are tracked, so a tracked write goes
    through [write_*] and marks its page. *)
val cached_page_for_write : t -> int -> bytes

val read_u8 : t -> int64 -> int
val read_u64 : t -> int64 -> int64
val write_u8 : t -> int64 -> int -> unit
val write_u64 : t -> int64 -> int64 -> unit
val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

(** [add_to_buffer buf t addr len] appends the [len] bytes at [addr] to
    [buf], page by page. Every page of the range is resolved (faulting in
    as needed) before the first byte is appended, so a [Segfault] leaves
    [buf] unchanged, and nothing is allocated in proportion to [len]
    before that. *)
val add_to_buffer : Buffer.t -> t -> int64 -> int -> unit
