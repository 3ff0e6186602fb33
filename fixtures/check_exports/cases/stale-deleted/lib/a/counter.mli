val incr : int -> int
