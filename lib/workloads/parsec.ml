open Dapper_clite
open Cl
open Dapper_ir

(* Worker argument passing: each worker receives its slice index and
   reads shared parameters from globals. Partial results accumulate into
   a per-thread cell of a results array, then main reduces. *)

(* Worker threads each app spawns. *)
let threads = 4

let spawn_join b =
  decl_arr b "tids" threads;
  for_ b "t" (i 0) (i threads) (fun b ->
      store_idx b (addr "tids") (v "t") (call "spawn" [ fnptr "worker"; v "t" ]));
  for_ b "t" (i 0) (i threads) (fun b ->
      do_ b (call "join" [ idx (addr "tids") (v "t") ]))

(* ----- blackscholes: Black-Scholes call pricing over an option array ----- *)

let blackscholes () =
  let m = create "parsec-blackscholes" in
  Cstd.add m;
  let nopts = 300 in
  global m "spot" (8 * nopts);
  global m "strike" (8 * nopts);
  global m "tte" (8 * nopts);
  global m "results" (8 * threads);
  global_i64 m "nopts" (Int64.of_int nopts);
  global_i64 m "nthreads" (Int64.of_int threads);
  (* cumulative normal distribution via the Abramowitz-Stegun polynomial *)
  func m "cndf" [ ("x", Ir.F64) ] (fun b ->
      declf b "ax" (v "x");
      decl b "negative" (i 0);
      if_ b (flt (v "ax") (f 0.0)) (fun b ->
          set b "ax" (fneg (v "ax"));
          set b "negative" (i 1));
      declf b "k" (fdiv (f 1.0) (fadd (f 1.0) (fmul (f 0.2316419) (v "ax"))));
      declf b "poly"
        (fmul (v "k")
           (fadd (f 0.319381530)
              (fmul (v "k")
                 (fadd (f (-0.356563782))
                    (fmul (v "k")
                       (fadd (f 1.781477937)
                          (fmul (v "k")
                             (fadd (f (-1.821255978)) (fmul (v "k") (f 1.330274429))))))))));
      declf b "pdf"
        (fmul (f 0.3989422804014327)
           (callf "fexp" [ fneg (fdiv (fmul (v "ax") (v "ax")) (f 2.0)) ]));
      declf b "cnd" (fsub (f 1.0) (fmul (v "pdf") (v "poly")));
      if_ b (ne (v "negative") (i 0)) (fun b -> ret b (fsub (f 1.0) (v "cnd")));
      ret b (v "cnd"));
  func m "price_one" [ ("s", Ir.F64); ("k", Ir.F64); ("t", Ir.F64) ] (fun b ->
      declf b "rate" (f 0.02);
      declf b "vol" (f 0.3);
      declf b "sq" (fmul (v "vol") (sqrt_ (v "t")));
      declf b "d1"
        (fdiv
           (fadd (callf "fln" [ fdiv (v "s") (v "k") ])
              (fmul (fadd (v "rate") (fmul (f 0.5) (fmul (v "vol") (v "vol")))) (v "t")))
           (v "sq"));
      declf b "d2" (fsub (v "d1") (v "sq"));
      ret b
        (fsub (fmul (v "s") (callf "cndf" [ v "d1" ]))
           (fmul (fmul (v "k") (callf "fexp" [ fneg (fmul (v "rate") (v "t")) ]))
              (callf "cndf" [ v "d2" ]))));
  func m "worker" [ ("slice", Ir.I64) ] (fun b ->
      declf b "acc" (f 0.0);
      decl b "p" (v "slice");
      while_ b (lt (v "p") (v "nopts")) (fun b ->
          set b "acc"
            (fadd (v "acc")
               (callf "price_one"
                  [ idx (addr "spot") (v "p"); idx (addr "strike") (v "p");
                    idx (addr "tte") (v "p") ]));
          set b "p" (add (v "p") (v "nthreads")));
      store_idx b (addr "results") (v "slice") (v "acc");
      ret b (i 0));
  func m "main" [] (fun b ->
      do_ b (call "rand_seed" [ i 90210 ]);
      for_ b "p" (i 0) (v "nopts") (fun b ->
          store_idx b (addr "spot") (v "p") (fadd (f 50.0) (fmul (callf "frand" []) (f 50.0)));
          store_idx b (addr "strike") (v "p")
            (fadd (f 50.0) (fmul (callf "frand" []) (f 50.0)));
          store_idx b (addr "tte") (v "p") (fadd (f 0.2) (callf "frand" [])));
      spawn_join b;
      declf b "total" (f 0.0);
      for_ b "t" (i 0) (i threads) (fun b ->
          set b "total" (fadd (v "total") (idx (addr "results") (v "t"))));
      Cstd.print b m "BS total=";
      do_ b (call "print_flt" [ v "total" ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

(* ----- swaptions: Monte-Carlo GBM payoff pricing ----- *)

let swaptions () =
  let m = create "parsec-swaptions" in
  Cstd.add m;
  let paths_per_thread = 150 in
  let steps = 16 in
  tls_var m "rng" 8;
  global m "results" (8 * threads);
  global_i64 m "nthreads" (Int64.of_int threads);
  func m "tls_rand" [] (fun b ->
      (* per-thread LCG so results are schedule-independent *)
      set b "rng"
        (add (mul (v "rng") (i64 6364136223846793005L)) (i64 1442695040888963407L));
      ret b (band (shr (v "rng") (i 11)) (i64 0x3FFFFFFFFFFFFL)));
  func m "tls_frand" [] (fun b ->
      ret b (fdiv (i2f (call "tls_rand" [])) (f 1125899906842624.0)));
  func m "simulate_path" [] (fun b ->
      declf b "price" (f 100.0);
      for_ b "s" (i 0) (i steps) (fun b ->
          declf b "shock" (fsub (callf "tls_frand" []) (f 0.5));
          set b "price"
            (fmul (v "price")
               (callf "fexp" [ fadd (f 0.001) (fmul (f 0.08) (v "shock")) ])));
      declf b "payoff" (fsub (v "price") (f 100.0));
      if_ b (flt (v "payoff") (f 0.0)) (fun b -> ret b (f 0.0));
      ret b (v "payoff"));
  func m "worker" [ ("slice", Ir.I64) ] (fun b ->
      set b "rng" (add (mul (v "slice") (i 77777)) (i 13));
      declf b "acc" (f 0.0);
      for_ b "p" (i 0) (i paths_per_thread) (fun b ->
          set b "acc" (fadd (v "acc") (callf "simulate_path" [])));
      store_idx b (addr "results") (v "slice")
        (fdiv (v "acc") (i2f (i paths_per_thread)));
      ret b (i 0));
  func m "main" [] (fun b ->
      spawn_join b;
      declf b "total" (f 0.0);
      for_ b "t" (i 0) (i threads) (fun b ->
          set b "total" (fadd (v "total") (idx (addr "results") (v "t"))));
      Cstd.print b m "SWAPTIONS avg=";
      do_ b (call "print_flt" [ fdiv (v "total") (i2f (i threads)) ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

(* ----- streamcluster: online assignment to k centers ----- *)

let streamcluster () =
  let m = create "parsec-streamcluster" in
  Cstd.add m;
  let npoints = 500 in
  let k = 8 in
  global m "px" (8 * npoints);
  global m "py" (8 * npoints);
  global m "cx" (8 * k);
  global m "cy" (8 * k);
  global m "cn" (8 * k);
  global m "mtx" 8;
  global m "cost_acc" 8;
  global_i64 m "npoints" (Int64.of_int npoints);
  global_i64 m "nthreads" (Int64.of_int threads);
  func m "nearest" [ ("x", Ir.F64); ("y", Ir.F64) ] (fun b ->
      decl b "best" (i 0);
      declf b "bestd" (f 1e18);
      for_ b "c" (i 0) (i k) (fun b ->
          declf b "dx" (fsub (v "x") (idx (addr "cx") (v "c")));
          declf b "dy" (fsub (v "y") (idx (addr "cy") (v "c")));
          declf b "d" (fadd (fmul (v "dx") (v "dx")) (fmul (v "dy") (v "dy")));
          if_ b (flt (v "d") (v "bestd")) (fun b ->
              set b "bestd" (v "d");
              set b "best" (v "c")));
      ret b (v "best"));
  func m "worker" [ ("slice", Ir.I64) ] (fun b ->
      decl b "p" (v "slice");
      decl b "localcost" (i 0);
      while_ b (lt (v "p") (v "npoints")) (fun b ->
          decl b "c" (call "nearest" [ idx (addr "px") (v "p"); idx (addr "py") (v "p") ]);
          do_ b (call "lock" [ addr "mtx" ]);
          (* incremental center update *)
          decl b "n" (add (idx (addr "cn") (v "c")) (i 1));
          store_idx b (addr "cn") (v "c") (v "n");
          store_idx b (addr "cx") (v "c")
            (fadd (idx (addr "cx") (v "c"))
               (fdiv (fsub (idx (addr "px") (v "p")) (idx (addr "cx") (v "c")))
                  (i2f (v "n"))));
          store_idx b (addr "cy") (v "c")
            (fadd (idx (addr "cy") (v "c"))
               (fdiv (fsub (idx (addr "py") (v "p")) (idx (addr "cy") (v "c")))
                  (i2f (v "n"))));
          do_ b (call "unlock" [ addr "mtx" ]);
          set b "localcost" (add (v "localcost") (i 1));
          set b "p" (add (v "p") (v "nthreads")));
      do_ b (call "lock" [ addr "mtx" ]);
      set b "cost_acc" (add (v "cost_acc") (v "localcost"));
      do_ b (call "unlock" [ addr "mtx" ]);
      ret b (i 0));
  func m "main" [] (fun b ->
      do_ b (call "rand_seed" [ i 5551212 ]);
      for_ b "p" (i 0) (v "npoints") (fun b ->
          store_idx b (addr "px") (v "p") (fmul (callf "frand" []) (f 10.0));
          store_idx b (addr "py") (v "p") (fmul (callf "frand" []) (f 10.0)));
      for_ b "c" (i 0) (i k) (fun b ->
          store_idx b (addr "cx") (v "c") (i2f (v "c"));
          store_idx b (addr "cy") (v "c") (i2f (v "c"));
          store_idx b (addr "cn") (v "c") (i 1));
      spawn_join b;
      Cstd.print b m "SC processed=";
      do_ b (call "print_int" [ v "cost_acc" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "cost_acc") (i 251)));
  finish m
