module C = Fixture_lib.Counter

let () = print_int (C.incr (Fixture_lib.Counter.start ()))
