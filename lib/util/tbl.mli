(** Plain-text table rendering for benchmark and experiment reports. *)

(** [print ~title ~header rows] renders and writes to stdout. *)
val print : title:string -> header:string list -> string list list -> unit

(** Format milliseconds with sensible precision. *)
val ms : float -> string

(** Format a ratio as a signed percentage, e.g. [+39.2%]. *)
val pct : float -> string
