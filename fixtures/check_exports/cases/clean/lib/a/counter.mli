val start : unit -> int
val incr : int -> int
val reference : int -> int
