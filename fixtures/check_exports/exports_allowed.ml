(* The self-test's list: only test/ reads Counter.reference. *)

let entries = [ ("Counter.reference", "reference the fixture's test compares against") ]
