let () = assert (Counter.reference 1 = Counter.incr 1 && Counter.peek 1 = 1)
