let () = assert (Counter.incr 1 = 2)
