open Dapper_clite
open Cl

(* ----- Linpack: LU factorization with partial pivoting + solve ----- *)

let linpack () =
  let m = create "linpack" in
  Cstd.add m;
  let n = 40 in
  (* matrix stored row-major at a[r*n+c]; b is the rhs *)
  func m "at" [ ("a", Dapper_ir.Ir.Ptr); ("r", Dapper_ir.Ir.I64); ("c", Dapper_ir.Ir.I64) ]
    (fun b -> ret b (add (v "a") (mul (add (mul (v "r") (i n)) (v "c")) (i 8))));
  func m "lu"
    [ ("a", Dapper_ir.Ir.Ptr); ("piv", Dapper_ir.Ir.Ptr); ("n", Dapper_ir.Ir.I64) ] (fun b ->
      for_ b "k" (i 0) (v "n") (fun b ->
          (* pivot search *)
          decl b "best" (v "k");
          declf b "bv" (deref (call "at" [ v "a"; v "k"; v "k" ]));
          if_ b (flt (v "bv") (f 0.0)) (fun b -> set b "bv" (fneg (v "bv")));
          for_ b "r" (add (v "k") (i 1)) (v "n") (fun b ->
              declf b "cand" (deref (call "at" [ v "a"; v "r"; v "k" ]));
              if_ b (flt (v "cand") (f 0.0)) (fun b -> set b "cand" (fneg (v "cand")));
              if_ b (flt (v "bv") (v "cand")) (fun b ->
                  set b "bv" (v "cand");
                  set b "best" (v "r")));
          store_idx b (v "piv") (v "k") (v "best");
          (* swap rows k and best *)
          if_ b (ne (v "best") (v "k")) (fun b ->
              for_ b "c" (i 0) (v "n") (fun b ->
                  declf b "tmp" (deref (call "at" [ v "a"; v "k"; v "c" ]));
                  store b (call "at" [ v "a"; v "k"; v "c" ])
                    (deref (call "at" [ v "a"; v "best"; v "c" ]));
                  store b (call "at" [ v "a"; v "best"; v "c" ]) (v "tmp")));
          (* eliminate below *)
          for_ b "r" (add (v "k") (i 1)) (v "n") (fun b ->
              declf b "factor"
                (fdiv
                   (deref (call "at" [ v "a"; v "r"; v "k" ]))
                   (deref (call "at" [ v "a"; v "k"; v "k" ])));
              store b (call "at" [ v "a"; v "r"; v "k" ]) (v "factor");
              for_ b "c" (add (v "k") (i 1)) (v "n") (fun b ->
                  store b (call "at" [ v "a"; v "r"; v "c" ])
                    (fsub
                       (deref (call "at" [ v "a"; v "r"; v "c" ]))
                       (fmul (v "factor") (deref (call "at" [ v "a"; v "k"; v "c" ]))))))));
  func m "solve"
    [ ("a", Dapper_ir.Ir.Ptr); ("piv", Dapper_ir.Ir.Ptr); ("bp", Dapper_ir.Ir.Ptr);
      ("n", Dapper_ir.Ir.I64) ] (fun b ->
      (* apply pivots + forward substitution *)
      for_ b "k" (i 0) (v "n") (fun b ->
          decl b "p" (idx (v "piv") (v "k"));
          if_ b (ne (v "p") (v "k")) (fun b ->
              declf b "tmp" (idx (v "bp") (v "k"));
              store_idx b (v "bp") (v "k") (idx (v "bp") (v "p"));
              store_idx b (v "bp") (v "p") (v "tmp"));
          for_ b "r" (add (v "k") (i 1)) (v "n") (fun b ->
              store_idx b (v "bp") (v "r")
                (fsub (idx (v "bp") (v "r"))
                   (fmul (deref (call "at" [ v "a"; v "r"; v "k" ])) (idx (v "bp") (v "k"))))));
      (* back substitution *)
      decl b "r" (sub (v "n") (i 1));
      while_ b (ge (v "r") (i 0)) (fun b ->
          declf b "s" (idx (v "bp") (v "r"));
          for_ b "c" (add (v "r") (i 1)) (v "n") (fun b ->
              set b "s"
                (fsub (v "s")
                   (fmul (deref (call "at" [ v "a"; v "r"; v "c" ])) (idx (v "bp") (v "c")))));
          store_idx b (v "bp") (v "r")
            (fdiv (v "s") (deref (call "at" [ v "a"; v "r"; v "r" ])));
          set b "r" (sub (v "r") (i 1))));
  func m "main" [] (fun b ->
      decl b "n" (i n);
      declp b "a" (call "sbrk" [ mul (mul (v "n") (v "n")) (i 8) ]);
      declp b "bv" (call "sbrk" [ mul (v "n") (i 8) ]);
      declp b "piv" (call "sbrk" [ mul (v "n") (i 8) ]);
      do_ b (call "rand_seed" [ i 1001 ]);
      (* random matrix; rhs = row sums so the solution is all-ones *)
      for_ b "r" (i 0) (v "n") (fun b ->
          declf b "rowsum" (f 0.0);
          for_ b "c" (i 0) (v "n") (fun b ->
              declf b "x" (fsub (callf "frand" []) (f 0.5));
              if_ b (eq (v "r") (v "c")) (fun b -> set b "x" (fadd (v "x") (f 8.0)));
              store b (call "at" [ v "a"; v "r"; v "c" ]) (v "x");
              set b "rowsum" (fadd (v "rowsum") (v "x")));
          store_idx b (v "bv") (v "r") (v "rowsum"));
      do_ b (call "lu" [ v "a"; v "piv"; v "n" ]);
      do_ b (call "solve" [ v "a"; v "piv"; v "bv"; v "n" ]);
      (* max |x_i - 1| *)
      declf b "err" (f 0.0);
      for_ b "k" (i 0) (v "n") (fun b ->
          declf b "d" (fsub (idx (v "bv") (v "k")) (f 1.0));
          if_ b (flt (v "d") (f 0.0)) (fun b -> set b "d" (fneg (v "d")));
          if_ b (flt (v "err") (v "d")) (fun b -> set b "err" (v "d")));
      Cstd.print b m "LINPACK maxerr*1e6=";
      do_ b (call "print_flt" [ fmul (v "err") (f 1000000.0) ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

(* ----- Dhrystone-like integer/string mix ----- *)

let dhrystone () =
  let m = create "dhrystone" in
  Cstd.add m;
  let loops = 2500 in
  let s1 = str_lit m "DHRYSTONE PROGRAM, SOME STRING\000" in
  let s2 = str_lit m "DHRYSTONE PROGRAM, S0ME STRING\000" in
  func m "strcmp8" [ ("a", Dapper_ir.Ir.Ptr); ("b2", Dapper_ir.Ir.Ptr) ] (fun b ->
      decl b "k" (i 0);
      while_ b (i 1) (fun b ->
          decl b "ca" (idx8 (v "a") (v "k"));
          decl b "cb" (idx8 (v "b2") (v "k"));
          if_ b (ne (v "ca") (v "cb")) (fun b -> ret b (sub (v "ca") (v "cb")));
          if_ b (eq (v "ca") (i 0)) (fun b -> ret b (i 0));
          set b "k" (add (v "k") (i 1)));
      ret b (i 0));
  func m "proc7" [ ("x", Dapper_ir.Ir.I64); ("y", Dapper_ir.Ir.I64) ] (fun b ->
      ret b (add (add (v "x") (i 2)) (v "y")));
  func m "proc8"
    [ ("arr", Dapper_ir.Ir.Ptr); ("idx1", Dapper_ir.Ir.I64); ("val1", Dapper_ir.Ir.I64) ]
    (fun b ->
      store_idx b (v "arr") (v "idx1") (add (v "val1") (i 5));
      store_idx b (v "arr") (add (v "idx1") (i 1)) (idx (v "arr") (v "idx1"));
      store_idx b (v "arr") (add (v "idx1") (i 30)) (v "idx1");
      ret b (i 0));
  func m "func2" [ ("p1", Dapper_ir.Ir.Ptr); ("p2", Dapper_ir.Ir.Ptr) ] (fun b ->
      if_ b (eq (call "strcmp8" [ v "p1"; v "p2" ]) (i 0)) (fun b -> ret b (i 1));
      ret b (i 0));
  func m "main" [] (fun b ->
      declp b "arr" (call "sbrk" [ i (8 * 64) ]);
      decl b "int1" (i 0);
      decl b "int2" (i 0);
      for_ b "run" (i 0) (i loops) (fun b ->
          set b "int1" (call "proc7" [ v "run"; v "int2" ]);
          set b "int2" (band (v "int1") (i 0xFFFF));
          do_ b (call "proc8" [ v "arr"; band (v "run") (i 30); v "int1" ]);
          if_ b (eq (call "func2" [ addr s1; addr s2 ]) (i 1)) (fun b ->
              set b "int2" (add (v "int2") (i 1000000))));
      Cstd.print b m "Dhrystone int1=";
      do_ b (call "print_int" [ v "int1" ]);
      Cstd.print b m " arr31=";
      do_ b (call "print_int" [ idx (v "arr") (i 31) ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "int1") (i 97)));
  finish m

(* ----- K-means clustering (2-D points, flat arrays) ----- *)

let kmeans () =
  let m = create "kmeans" in
  Cstd.add m;
  let npoints = 600 in
  let k = 8 in
  let iters = 12 in
  func m "dist2"
    [ ("ax", Dapper_ir.Ir.F64); ("ay", Dapper_ir.Ir.F64); ("bx", Dapper_ir.Ir.F64);
      ("by", Dapper_ir.Ir.F64) ] (fun b ->
      declf b "dx" (fsub (v "ax") (v "bx"));
      declf b "dy" (fsub (v "ay") (v "by"));
      ret b (fadd (fmul (v "dx") (v "dx")) (fmul (v "dy") (v "dy"))));
  func m "main" [] (fun b ->
      decl b "n" (i npoints);
      declp b "px" (call "sbrk" [ mul (v "n") (i 8) ]);
      declp b "py" (call "sbrk" [ mul (v "n") (i 8) ]);
      declp b "cx" (call "sbrk" [ i (8 * k) ]);
      declp b "cy" (call "sbrk" [ i (8 * k) ]);
      declp b "csum_x" (call "sbrk" [ i (8 * k) ]);
      declp b "csum_y" (call "sbrk" [ i (8 * k) ]);
      declp b "ccnt" (call "sbrk" [ i (8 * k) ]);
      do_ b (call "rand_seed" [ i 2718 ]);
      for_ b "p" (i 0) (v "n") (fun b ->
          store_idx b (v "px") (v "p") (fmul (callf "frand" []) (f 100.0));
          store_idx b (v "py") (v "p") (fmul (callf "frand" []) (f 100.0)));
      for_ b "c" (i 0) (i k) (fun b ->
          store_idx b (v "cx") (v "c") (idx (v "px") (mul (v "c") (i 7)));
          store_idx b (v "cy") (v "c") (idx (v "py") (mul (v "c") (i 7))));
      for_ b "it" (i 0) (i iters) (fun b ->
          for_ b "c" (i 0) (i k) (fun b ->
              store_idx b (v "csum_x") (v "c") (f 0.0);
              store_idx b (v "csum_y") (v "c") (f 0.0);
              store_idx b (v "ccnt") (v "c") (i 0));
          for_ b "p" (i 0) (v "n") (fun b ->
              decl b "bestc" (i 0);
              declf b "bestd" (f 1e18);
              for_ b "c" (i 0) (i k) (fun b ->
                  declf b "d"
                    (callf "dist2"
                       [ idx (v "px") (v "p"); idx (v "py") (v "p");
                         idx (v "cx") (v "c"); idx (v "cy") (v "c") ]);
                  if_ b (flt (v "d") (v "bestd")) (fun b ->
                      set b "bestd" (v "d");
                      set b "bestc" (v "c")));
              store_idx b (v "csum_x") (v "bestc")
                (fadd (idx (v "csum_x") (v "bestc")) (idx (v "px") (v "p")));
              store_idx b (v "csum_y") (v "bestc")
                (fadd (idx (v "csum_y") (v "bestc")) (idx (v "py") (v "p")));
              store_idx b (v "ccnt") (v "bestc")
                (add (idx (v "ccnt") (v "bestc")) (i 1)));
          for_ b "c" (i 0) (i k) (fun b ->
              if_ b (gt (idx (v "ccnt") (v "c")) (i 0)) (fun b ->
                  store_idx b (v "cx") (v "c")
                    (fdiv (idx (v "csum_x") (v "c")) (i2f (idx (v "ccnt") (v "c"))));
                  store_idx b (v "cy") (v "c")
                    (fdiv (idx (v "csum_y") (v "c")) (i2f (idx (v "ccnt") (v "c")))))));
      Cstd.print b m "KMEANS centroids:";
      do_ b (call "print_nl" []);
      for_ b "c" (i 0) (i k) (fun b ->
          do_ b (call "print_flt" [ idx (v "cx") (v "c") ]);
          Cstd.print b m " ";
          do_ b (call "print_flt" [ idx (v "cy") (v "c") ]);
          do_ b (call "print_nl" []));
      ret b (i 0));
  finish m
