let () = print_int (Counter.incr (Other.Counter.depth 0))
