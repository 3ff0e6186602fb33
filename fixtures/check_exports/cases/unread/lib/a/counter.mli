val incr : int -> int
val reference : int -> int
val planted : int
