let () = print_int (Counter.incr (Counter.reference 0))
