(** Bounded reader for the length-prefixed little-endian formats of
    [Binary.serialize] and [Stackmap.serialize].

    Every read checks the bytes left before touching them, a list count
    may not exceed the bytes left (each element takes at least one), and
    {!decode} rejects trailing bytes. Any input the writer could not have
    produced raises {!Malformed}, never [Invalid_argument]. *)

exception Malformed of string

type t

(** [decode s f] runs [f] over [s] and requires it to consume every
    byte. *)
val decode : string -> (t -> 'a) -> 'a

(** Raise {!Malformed} with a formatted message (bad tags, magic). *)
val malformed : ('a, unit, string, 'b) format4 -> 'a

val u8 : t -> int
val u32 : t -> int

(** A u32 read as two's complement. *)
val s32 : t -> int

val i64 : t -> int64

(** A u32 byte length, then that many bytes. *)
val str : t -> string

(** A u32 count, then that many elements read by [f], in order. *)
val list : t -> (t -> 'a) -> 'a list
