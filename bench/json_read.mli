(** Reading JSON documents of {!Dapper_util.Json.t}: bench/check_bench.ml's
    parser for BENCH_RESULTS.json. *)

exception Parse_error of string

(** Parse a JSON document. Raises [Parse_error] on malformed input. *)
val of_string : string -> Dapper_util.Json.t

(** Accessors; the conversions raise [Parse_error] when the shape does
    not match. *)

val member_opt : string -> Dapper_util.Json.t -> Dapper_util.Json.t option
val to_float : Dapper_util.Json.t -> float
val to_bool : Dapper_util.Json.t -> bool
val to_str : Dapper_util.Json.t -> string
val to_list : Dapper_util.Json.t -> Dapper_util.Json.t list
