open Dapper_clite
open Cl
module Link = Dapper_codegen.Link

(* examples/quickstart.ml in miniature: a square-and-accumulate loop
   calling a helper, one equivalence point per iteration. *)
let quickstart () =
  let m = create "mini-quickstart" in
  Cstd.add m;
  func m "step" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      ret b (add (mul (v "n") (v "n")) (i 1)));
  func m "main" [] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 40) (fun b ->
          set b "acc" (add (v "acc") (call "step" [ v "k" ])));
      Cstd.print b m "acc=";
      do_ b (call "print_int" [ v "acc" ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

(* examples/source_program.ml in miniature: the same Monte-Carlo pi
   estimator through the textual frontend, with fewer trials. *)
let pi_source = {|
  // monte-carlo estimate of pi, checkpointable at every function call
  global inside;

  fn trial() {
    var f x = frand() * 2.0 - 1.0;
    var f y = frand() * 2.0 - 1.0;
    if (x * x + y * y <= 1.0) { return 1; }
    return 0;
  }

  fn main() {
    rand_seed(31415);
    var n = 25;
    var k = 0;
    for (k = 0; k < n; k = k + 1) {
      inside = inside + trial();
    }
    print("pi ~ ");
    print_flt(4.0 * i2f(inside) / i2f(n));
    print_nl();
    return 0;
  }
|}

let pi () = Parse.compile ~name:"mini-pi" pi_source

(* Deep recursion: every migration point carries a tower of live frames
   (naive Fibonacci, the worst case for the frame rewriter). *)
let fib () =
  let m = create "mini-fib" in
  Cstd.add m;
  func m "fib" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      if_else b
        (lt (v "n") (i 2))
        (fun b -> ret b (v "n"))
        (fun b ->
          ret b (add (call "fib" [ sub (v "n") (i 1) ]) (call "fib" [ sub (v "n") (i 2) ]))));
  func m "main" [] (fun b ->
      decl b "r" (call "fib" [ i 9 ]);
      do_ b (call "print_int" [ v "r" ]);
      do_ b (call "print_nl" []);
      ret b (band (v "r") (i 127)));
  finish m

(* Arrays and pointers: a sieve over a global buffer plus a local
   scratch array addressed through pointer locals — heap-free but heavy
   on the pointer-translation path. *)
let sieve () =
  let n = 48 in
  let m = create "mini-sieve" in
  Cstd.add m;
  global m "flags" (8 * n);
  func m "mark" [ ("p", Dapper_ir.Ir.Ptr); ("step", Dapper_ir.Ir.I64); ("n", Dapper_ir.Ir.I64) ]
    (fun b ->
      decl b "j" (mul (v "step") (i 2));
      while_ b
        (lt (v "j") (v "n"))
        (fun b ->
          store_idx b (v "p") (v "j") (i 1);
          set b "j" (add (v "j") (v "step"))));
  func m "main" [] (fun b ->
      declp b "p" (addr "flags");
      do_ b (call "memset8" [ v "p"; i 0; i (8 * n) ]);
      decl_arr b "hits" 8;
      do_ b (call "memset8" [ addr "hits"; i 0; i 64 ]);
      declp b "hp" (addr "hits");
      decl b "count" (i 0);
      for_ b "k" (i 2) (i n) (fun b ->
          if_ b
            (eq (idx (v "p") (v "k")) (i 0))
            (fun b ->
              set b "count" (add (v "count") (i 1));
              store_idx b (v "hp") (band (v "count") (i 7)) (v "k");
              do_ b (call "mark" [ v "p"; v "k"; i n ])));
      do_ b (call "print_int" [ v "count" ]);
      Cstd.print b m " primes; last=";
      do_ b (call "print_int" [ idx (v "hp") (band (v "count") (i 7)) ]);
      do_ b (call "print_nl" []);
      ret b (v "count"));
  finish m

let specs =
  [ ("mini-quickstart", quickstart);
    ("mini-pi", pi);
    ("mini-fib", fib);
    ("mini-sieve", sieve) ]

let compile (name, build) = Link.memoized ~app:name build

let all () = List.map (fun spec -> (fst spec, compile spec)) specs

let find name =
  List.find_opt (fun (n, _) -> n = name) specs |> Option.map compile
