let () = assert (Counter.reference 1 = Counter.incr 1)
