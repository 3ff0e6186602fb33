(** Page-granular simulated memory with demand paging.

    Reads and writes may cross page boundaries. Accessing an unmapped
    page consults the fault handler (used both for demand-loading code
    pages from the binary — CRIU does not dump clean code pages — and for
    lazy post-copy migration, where missing pages are fetched from the
    source node's page server).

    A small direct-mapped cache of recently used pages sits in front of
    the page table, so a hit costs no hashing; [map_page] keeps it
    coherent.

    {2 Sharing}

    Pages are copy-on-write. A page is {e shared} when {!share_page}
    handed its bytes out, {!map_shared} mapped a string as it, or the
    fault handler served it. Nothing writes a shared page's bytes: its
    first write through [write_*] copies it into the page table. So a
    page moves between memories and images (dump, restore, lazy,
    drained and pre-copied pages) with no copy unless a side writes it.
    Bytes from {!page_contents}, {!cached_page} and the fault handler
    are read-only to callers.

    Beside each cache slot sits a write tag: the slot's page may be
    written in place, since it is not shared and, while dirty pages are
    tracked, is already dirty. Only [write_*] gives a page its tag;
    {!share_page}, mapping or evicting the page, {!track_dirty} and
    {!clear_dirty} take it back. {!cached_page_for_write} is the tag
    compare. *)

type t

exception Segfault of int64

(** [create ()] has no pages mapped and no fault handler. *)
val create : unit -> t

(** The handler receives the page number and returns the page contents,
    or [None] to signal a true segfault. The page is mapped shared, so
    the handler may serve bytes that others hold. *)
val set_fault_handler : t -> (int -> bytes option) option -> unit

(** Number of pages the fault handler was invoked for (successfully). *)
val fault_count : t -> int

(** [map_page t pn data] maps [data] as page [pn]; writes change [data]. *)
val map_page : t -> int -> bytes -> unit

(** [map_shared t pn s] maps [s] as page [pn] without a copy; [s] keeps
    its bytes. *)
val map_shared : t -> int -> string -> unit

(** [share_page t pn] is page [pn]'s bytes without a copy ([None] if
    [pn] is unmapped; the fault handler is not asked). The page becomes
    shared, so the string keeps its bytes. *)
val share_page : t -> int -> string option

val is_mapped : t -> int -> bool

(** Mapped page numbers in increasing order, as a freshly sorted array
    (monomorphic [Int.compare], no per-element closure or intermediate
    list). Snapshot callers that immediately iterate should prefer this
    over {!mapped_pages}. *)
val page_numbers : t -> int array

(** Mapped page numbers in increasing order. *)
val mapped_pages : t -> int list

(** Raw page contents (without triggering the fault handler); read-only. *)
val page_contents : t -> int -> bytes option

(** {2 Dirty-page tracking}

    Iterative pre-copy needs to know which pages were written between
    transfer rounds. Tracking is off by default; [track_dirty t true]
    starts tracking into a fresh empty set, [track_dirty t false] stops
    and drops the set. Writes, [map_page] and [map_shared] mark pages;
    reads — including fault-handler demand loads, whose contents are
    reproducible on the destination — do not. A page's first write in a
    round marks it and gives it its write tag, so later writes in the
    round go in place. *)

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

(** As {!cached_page}, for a write the caller makes in place: the bytes
    only while the slot holds the page's write tag. *)
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
