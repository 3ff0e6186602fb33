(** Minimal JSON printing, without external dependencies: the CRIT image
    tool, the trace exporter and the bench results file print it. Nothing
    in lib/ parses JSON; the bench results gate reads it back with its
    own parser (bench/json_read.ml). *)

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
