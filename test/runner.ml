(* Alcotest pads suite names to the longest one a runner registers and
   cuts each test name to fit an 80-column line, so the name a test prints
   depends on the suites that share its runner. Every runner registers an
   empty suite under the longest suite name in the tree, so each test
   prints under the same name whichever runner it is in. *)
let run ?argv name suites = Alcotest.run ?argv name (("workloads-cross-isa", []) :: suites)
