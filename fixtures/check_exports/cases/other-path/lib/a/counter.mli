val incr : int -> int
val reference : int -> int
val depth : int -> int
