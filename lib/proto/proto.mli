(** Protocol-buffer wire format (the subset CRIU images use).

    CRIU serializes most process images as protobuf messages (paper
    Section II). This module implements the wire format — varints,
    length-delimited fields, nested messages. The image files are
    written in it and never read back; the replay log is written in it
    and decoded from disk. *)

type payload =
  | Varint of int64
  | Fixed64 of int64
  | Delim of string       (** strings, bytes, nested messages *)

type field = { tag : int; payload : payload }

exception Decode_error of string

(** {1 Wire encoding} *)

val encode : field list -> string
val decode : string -> field list

(** Raw varint helpers (exposed for tests). *)
val encode_varint : Dapper_util.Bytebuf.t -> int64 -> unit
val decode_varint : string -> int -> int64 * int

(** {1 Message construction and access} *)

val v_int : int -> int64 -> field
val v_fix : int -> int64 -> field
val v_str : int -> string -> field
val v_msg : int -> field list -> field

(** First field with the tag, decoded; raise [Decode_error] on missing
    tag or wrong wire type. *)
val get_int : field list -> int -> int64
val get_fix : field list -> int -> int64
val get_str : field list -> int -> string
val get_msg : field list -> int -> field list

val get_int_opt : field list -> int -> int64 option

(** All fields with the tag (repeated fields). *)
val get_all_msgs : field list -> int -> field list list
val get_all_ints : field list -> int -> int64 list
