(** Minimal JSON, without external dependencies: the CRIT image tool and
    the trace exporter print it, and the bench results gate parses it. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Pretty-print with two-space indentation. *)
val to_string : t -> string

(** Parse a JSON document. Raises [Parse_error] on malformed input. *)
val of_string : string -> t

exception Parse_error of string

(** Accessors; the conversions raise [Parse_error] when the shape does
    not match. *)

val member_opt : string -> t -> t option
val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
