(* Every suite of the four runners in one process, with the suites, and
   the tests inside each suite, in an order permuted by the seed given
   as the first argument; the arguments after it go to Alcotest:

     main_shuffled.exe SEED [ALCOTEST-ARGS]

   A test that passes in its own runner but fails here depends on state
   another test left behind, or on running before it. `dune build
   @shuffled` runs seeds 1 and 2. *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let () =
  let argc = Array.length Sys.argv in
  match if argc < 2 then None else int_of_string_opt Sys.argv.(1) with
  | None ->
    prerr_endline "usage: main_shuffled SEED [ALCOTEST-ARGS]";
    exit 2
  | Some seed ->
    let rng = Random.State.make [| seed |] in
    let suites =
      Group_toolchain.suites @ Group_core.suites @ Group_fleet.suites
      @ Group_verify.suites
      |> shuffle rng
      |> List.map (fun (name, tests) -> (name, shuffle rng tests))
    in
    Runner.run
      ~argv:(Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 2 (argc - 2)))
      (Printf.sprintf "dapper-shuffled-%d" seed)
      suites
