(** Growable byte buffer with little-endian fixed-width accessors.

    Used for machine-code emission, raw page contents, and image
    serialization throughout the tree. *)

type t

val create : int -> t
val contents : t -> string

(** Appending. *)

val add_u8 : t -> int -> unit
val add_u16 : t -> int -> unit
val add_u32 : t -> int -> unit
val add_i64 : t -> int64 -> unit
val add_bytes : t -> string -> unit

(** Random-access reads over a string (decoder side). Raise
    [Invalid_argument] when out of bounds. *)

val get_u8 : string -> int -> int
val get_u16 : string -> int -> int
val get_u32 : string -> int -> int
val get_i64 : string -> int -> int64

(** {1 Content checksums}

    FNV-1a (64-bit): the state digests of [Process.observe] and the
    replay log's digests, which are pinned as absolute values. Every
    entry point runs on one kernel that reads each byte once and
    allocates nothing but the boxed result. *)

(** FNV's 64-bit offset basis, where every digest starts. *)
val fnv64_offset : int64

(** [fnv64_mix h x] is FNV's step [(h xor x) * p], [p] its odd 64-bit
    prime: with [x] one byte it is FNV-1a's, and every digest here is a
    fold of it. *)
val fnv64_mix : int64 -> int64 -> int64

(** [fnv64 s] digests [s] from the standard offset basis. *)
val fnv64 : string -> int64

(** [fnv64_fold h s] continues a digest [h] over [s], for multi-part
    payloads (file name + contents, page runs):
    [fnv64_fold (fnv64 a) b = fnv64 (a ^ b)]. *)
val fnv64_fold : int64 -> string -> int64

(** [fnv64_sub h s off len] continues a digest [h] over the [len] bytes
    of [s] from [off], without copying them out: it equals
    [fnv64_fold h (String.sub s off len)]. Raises [Invalid_argument]
    unless [0 <= off], [0 <= len] and [off + len <= String.length s]. *)
val fnv64_sub : int64 -> string -> int -> int -> int64

(** {1 Transport digest}

    The checksum of image files and pages on the wire, at about eight
    times FNV-1a's speed. It is never printed or stored, so it has no
    pins. *)

(** [word64 parts] digests [parts] in order from the FNV-1a offset
    basis, one 8-byte word (in the host's byte order: both ends of an
    in-process link share it) per step [h <- (h xor w) * p] with FNV's
    odd prime [p]; the [len mod 8] tail bytes of each part then fold one
    at a time, as FNV-1a does. It reads every byte once, allocates
    nothing per word, and never copies a part. Each step is injective in
    its word, so a change confined to one word (any single-byte flip)
    always changes the digest. It equals [word64 [String.concat "" parts]]
    whenever every part but the last is a multiple of 8 bytes long, as a
    page table's pages are. *)
val word64 : string list -> int64
