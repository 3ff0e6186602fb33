open Dapper_clite
open Cl
module Rng = Dapper_util.Rng
module Link = Dapper_codegen.Link

let name seed = Printf.sprintf "gen%d" seed

(* Separate variable pools per type: clite is explicitly typed and the
   generator must never mix an f64 into an integer expression. *)
type ctx = {
  rng : Rng.t;
  mutable ivars : string list;
  mutable fvars : string list;
  mutable pvars : (string * int) list;
      (* pointers into the global/local arrays, with the index mask that
         keeps accesses inside each array (sizes are powers of two) *)
  mutable fresh : int;
  mutable depth_budget : int;   (* bounds statement nesting across the program *)
}

let pick ctx l = List.nth l (Rng.int ctx.rng (List.length l))

let fresh ctx prefix =
  let n = Printf.sprintf "%s%d" prefix ctx.fresh in
  ctx.fresh <- ctx.fresh + 1;
  n

(* ----- integer expressions ----- *)

let rec iexpr ctx depth =
  if depth <= 0 then ileaf ctx
  else
    match Rng.int ctx.rng 12 with
    | 0 -> add (iexpr ctx (depth - 1)) (iexpr ctx (depth - 1))
    | 1 -> sub (iexpr ctx (depth - 1)) (iexpr ctx (depth - 1))
    | 2 -> mul (iexpr ctx (depth - 1)) (band (iexpr ctx (depth - 1)) (i 255))
    | 3 -> div_ (iexpr ctx (depth - 1)) (bor (band (iexpr ctx (depth - 1)) (i 1023)) (i 1))
    | 4 -> rem_ (iexpr ctx (depth - 1)) (bor (band (iexpr ctx (depth - 1)) (i 1023)) (i 1))
    | 5 -> bxor (iexpr ctx (depth - 1)) (iexpr ctx (depth - 1))
    | 6 -> shl (iexpr ctx (depth - 1)) (band (iexpr ctx (depth - 1)) (i 15))
    | 7 -> shr (iexpr ctx (depth - 1)) (band (iexpr ctx (depth - 1)) (i 15))
    | 8 -> bnot (iexpr ctx (depth - 1))
    | 9 -> lt (iexpr ctx (depth - 1)) (iexpr ctx (depth - 1))
    | 10 when ctx.pvars <> [] ->
      (* read back through a pointer; indices are masked in-bounds *)
      let p, mask = pick ctx ctx.pvars in
      idx (v p) (band (iexpr ctx (depth - 1)) (i mask))
    | _ -> ileaf ctx

and ileaf ctx =
  match Rng.int ctx.rng 5 with
  | 0 | 1 when ctx.ivars <> [] -> v (pick ctx ctx.ivars)
  | 2 -> v "gsum"
  | _ -> i (Rng.int ctx.rng 2048 - 1024)

(* ----- float expressions -----

   Magnitudes are kept bounded (divisors offset away from zero, square
   roots of non-negative arguments) so results stay finite: both ISAs
   evaluate identically either way, but finite values also keep the
   f2i folds at the end of main well-behaved. *)

let rec fexpr ctx depth =
  if depth <= 0 then fleaf ctx
  else
    match Rng.int ctx.rng 7 with
    | 0 -> fadd (fexpr ctx (depth - 1)) (fexpr ctx (depth - 1))
    | 1 -> fsub (fexpr ctx (depth - 1)) (fexpr ctx (depth - 1))
    | 2 -> fmul (fexpr ctx (depth - 1)) (fleaf ctx)
    | 3 ->
      let d = fexpr ctx (depth - 1) in
      fdiv (fexpr ctx (depth - 1)) (fadd (fmul d d) (f 1.0))
    | 4 -> fneg (fexpr ctx (depth - 1))
    | 5 ->
      let e = fexpr ctx (depth - 1) in
      sqrt_ (fadd (fmul e e) (f 0.25))
    | _ -> fleaf ctx

and fleaf ctx =
  match Rng.int ctx.rng 4 with
  | 0 | 1 when ctx.fvars <> [] -> v (pick ctx ctx.fvars)
  | 2 -> i2f (band (ileaf ctx) (i 63))
  | _ -> f (float_of_int (Rng.int ctx.rng 64) /. 8.0)

(* ----- statements ----- *)

let call_mix3 ctx d = call "mix3" [ iexpr ctx d; iexpr ctx d; iexpr ctx d ]

let rec stmt ctx b =
  match Rng.int ctx.rng 14 with
  | 0 ->
    let n = fresh ctx "x" in
    decl b n (iexpr ctx 3);
    ctx.ivars <- n :: ctx.ivars
  | 1 ->
    let n = fresh ctx "fx" in
    declf b n (fexpr ctx 2);
    ctx.fvars <- n :: ctx.fvars
  | 2 when ctx.ivars <> [] -> set b (pick ctx ctx.ivars) (iexpr ctx 3)
  | 3 when ctx.fvars <> [] -> set b (pick ctx ctx.fvars) (fexpr ctx 2)
  | 4 when ctx.pvars <> [] ->
    let p, mask = pick ctx ctx.pvars in
    store_idx b (v p) (band (iexpr ctx 2) (i mask)) (iexpr ctx 2)
  | 5 ->
    (* direct call through the 3-register convention *)
    let n = fresh ctx "x" in
    decl b n (call_mix3 ctx 2);
    ctx.ivars <- n :: ctx.ivars
  | 6 ->
    (* all six argument registers *)
    let a () = iexpr ctx 1 in
    let n = fresh ctx "x" in
    decl b n (call "mix6" [ a (); a (); a (); a (); a (); a () ]);
    ctx.ivars <- n :: ctx.ivars
  | 7 ->
    (* indirect call through a function pointer *)
    let n = fresh ctx "x" in
    decl b n (call_ptr (fnptr "mix3") [ iexpr ctx 1; iexpr ctx 1; iexpr ctx 1 ]);
    ctx.ivars <- n :: ctx.ivars
  | 8 ->
    (* bounded recursion *)
    let n = fresh ctx "x" in
    decl b n (call "walk" [ i (1 + Rng.int ctx.rng 8) ]);
    ctx.ivars <- n :: ctx.ivars
  | 9 ->
    let n = fresh ctx "fx" in
    declf b n (callf "fmix" [ fexpr ctx 1; fexpr ctx 1 ]);
    ctx.fvars <- n :: ctx.fvars
  | 10 when ctx.depth_budget > 0 && ctx.ivars <> [] ->
    ctx.depth_budget <- ctx.depth_budget - 1;
    let target = pick ctx ctx.ivars in
    let k = fresh ctx "k" in
    for_ b k (i 0) (i (1 + Rng.int ctx.rng 5)) (fun b ->
        set b target (add (v target) (iexpr ctx 2));
        if Rng.bool ctx.rng then
          set b "gsum" (bxor (v "gsum") (v target)))
  | 11 when ctx.depth_budget > 0 ->
    ctx.depth_budget <- ctx.depth_budget - 1;
    if_else b (iexpr ctx 2)
      (fun b -> block ctx b)
      (fun b -> block ctx b)
  | 12 -> set b "gsum" (add (v "gsum") (iexpr ctx 2))
  | _ -> set b "tcnt" (add (v "tcnt") (i (1 + Rng.int ctx.rng 7)))

and block ctx b =
  let n = 1 + Rng.int ctx.rng 3 in
  for _ = 1 to n do
    stmt ctx b
  done

let program seed =
  let rng = Rng.create (Int64.of_int (0x5eed_0000 + seed)) in
  let m = create (name seed) in
  Cstd.add m;
  global m "gbuf" (32 * 8);
  global_i64 m "gsum" 0L;
  tls_var m "tcnt" 8;
  let ir = Dapper_ir.Ir.I64 and fr = Dapper_ir.Ir.F64 in
  func m "mix3" [ ("a", ir); ("b2", ir); ("c", ir) ] (fun b ->
      ret b
        (bxor
           (add (v "a") (mul (v "b2") (i 31)))
           (sub (shr (v "c") (i 3)) (v "b2"))));
  func m "mix6" [ ("a", ir); ("b2", ir); ("c", ir); ("d", ir); ("e", ir); ("g", ir) ]
    (fun b ->
      ret b
        (bxor
           (add (v "a") (sub (v "b2") (v "c")))
           (add (mul (v "d") (i 7)) (sub (v "e") (v "g")))));
  func m "fmix" [ ("x", fr); ("y", fr) ] (fun b ->
      ret b (fadd (fmul (v "x") (v "y")) (fsub (v "x") (v "y"))));
  func m "walk" [ ("n", ir) ] (fun b ->
      (* recursion: every activation is a distinct frame the rewriter
         must carry across, with a call-site equivalence point live *)
      if_else b
        (le (v "n") (i 0))
        (fun b -> ret b (i 1))
        (fun b ->
          ret b
            (add
               (call "mix3" [ v "n"; mul (v "n") (i 3); i 11 ])
               (call "walk" [ sub (v "n") (i 1) ]))));
  func m "main" [] (fun b ->
      let ctx = { rng; ivars = []; fvars = []; pvars = []; fresh = 0; depth_budget = 3 } in
      decl b "out" (i 1);
      ctx.ivars <- [ "out" ];
      declp b "gp" (addr "gbuf");
      ctx.pvars <- [ ("gp", 31) ];
      (* a local array, fully zeroed before any use so its bytes are
         well-defined on both ISAs, reachable through a pointer local *)
      let arr_slots = 8 lsl Rng.int ctx.rng 3 in
      decl_arr b "lbuf" arr_slots;
      do_ b (call "memset8" [ addr "lbuf"; i 0; i (arr_slots * 8) ]);
      declp b "lp" (addr "lbuf");
      ctx.pvars <- ("lp", arr_slots - 1) :: ctx.pvars;
      let nstmts = 5 + Rng.int ctx.rng 8 in
      for _ = 1 to nstmts do
        stmt ctx b
      done;
      (* fold every live variable into the observable result *)
      List.iter (fun n -> set b "out" (bxor (v "out") (v n))) ctx.ivars;
      List.iter
        (fun n -> set b "out" (bxor (v "out") (f2i (fmul (v n) (f 64.0)))))
        ctx.fvars;
      List.iter
        (fun (p, _) -> set b "out" (add (v "out") (idx (v p) (band (v "out") (i 7)))))
        ctx.pvars;
      set b "out" (bxor (v "out") (add (v "gsum") (v "tcnt")));
      do_ b (call "print_int" [ v "out" ]);
      do_ b (call "print_nl" []);
      ret b (band (v "out") (i 127)));
  finish m

(* Compiled once per seed: the qcheck properties visit each seed once
   per ISA direction, and the corpus sweep revisits them. *)
let compile seed = Link.memoized ~app:(name seed) (fun () -> program seed)
