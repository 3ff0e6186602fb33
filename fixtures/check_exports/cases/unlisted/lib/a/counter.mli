val incr : int -> int
val reference : int -> int
val peek : int -> int
