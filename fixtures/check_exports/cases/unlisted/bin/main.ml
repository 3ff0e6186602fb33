let () = print_int (Counter.incr 0)
