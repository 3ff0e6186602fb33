(** Growable byte buffer with little-endian fixed-width accessors.

    Used for machine-code emission, raw page contents, and image
    serialization throughout the tree. *)

type t

val create : int -> t
val length : t -> int
val contents : t -> string
val of_string : string -> t

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

    FNV-1a (64-bit) — the tree's canonical content digest, used for
    per-page and per-image checksums on image transfers and for the
    state digests of [Process.observe]. Every entry point runs on one
    kernel that reads each byte once and allocates nothing but the
    boxed result. *)

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
