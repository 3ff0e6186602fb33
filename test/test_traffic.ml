(* Live-traffic plane tests: quantile-sketch accuracy against an exact
   sort oracle (property-based, adversarial inputs), pre-copy dirty-page
   convergence over random write sets, downtime-budget policy, arrival
   process determinism, and golden fingerprints pinning the fig7-live
   latency traces byte-identical per seed. *)

open Dapper_machine
open Dapper_net
open Dapper_traffic
module Link = Dapper_codegen.Link
module Netlink = Dapper_net.Link
module Session = Dapper.Session
module Layout = Dapper_binary.Layout
module Rng = Dapper_util.Rng

let check = Alcotest.check

(* ----- quantile sketch vs the exact nearest-rank oracle ----- *)

(* The oracle the sketch's accuracy contract is stated against: sort,
   then nearest rank [max 1 (ceil (q * n))]. *)
let exact_quantile values q =
  let sorted = List.sort Float.compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_quantiles = [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let check_sketch_against_oracle ~what values =
  let s = Sketch.create () in
  List.iter (Sketch.add s) values;
  if Sketch.count s <> List.length values then
    Alcotest.failf "%s: count %d <> %d" what (Sketch.count s)
      (List.length values);
  List.iter
    (fun q ->
      let exact = exact_quantile values q in
      let est = Sketch.quantile s q in
      let bound = (0.01 *. Float.abs exact) +. 1e-9 in
      if Float.abs (est -. exact) > bound then
        Alcotest.failf "%s: q=%g est=%.9g exact=%.9g (bound %.3g)" what q est
          exact bound)
    test_quantiles

(* Adversarial input shapes: uniform random, pre-sorted (ascending and
   descending), constant, heavy-tailed (Pareto-like u^-2, spans many
   orders of magnitude), and a zero-spiked mix. *)
let gen_values =
  QCheck.Gen.(
    let n = int_range 1 400 in
    let shaped shape =
      n >>= fun len ->
      list_repeat len (float_range 0.0 1.0) >|= fun us ->
      let us = List.map (fun u -> Float.min u 0.999999) us in
      match shape with
      | `Uniform -> List.map (fun u -> u *. 1000.0) us
      | `Sorted -> List.sort Float.compare (List.map (fun u -> u *. 1000.0) us)
      | `Rev_sorted ->
        List.sort (fun a b -> Float.compare b a)
          (List.map (fun u -> u *. 1000.0) us)
      | `Constant -> List.map (fun _ -> 42.125) us
      | `Heavy -> List.map (fun u -> (1.0 -. u) ** -2.0) us
      | `Zero_spiked ->
        List.map (fun u -> if u < 0.3 then 0.0 else u *. 10.0) us
    in
    oneofl [ `Uniform; `Sorted; `Rev_sorted; `Constant; `Heavy; `Zero_spiked ]
    >>= shaped)

let arb_values =
  QCheck.make
    ~print:(fun vs ->
      Printf.sprintf "[%s]"
        (String.concat "; " (List.map (Printf.sprintf "%.9g") vs)))
    gen_values

let qcheck_sketch_rank_error =
  QCheck.Test.make ~count:300 ~name:"sketch quantiles within rel_err of sort oracle"
    arb_values
    (fun values ->
      check_sketch_against_oracle ~what:"sketch" values;
      true)

(* Merge: exact bucket-wise addition — associative, commutative, and
   identical to adding the values one by one. *)
let sketch_of values =
  let s = Sketch.create () in
  List.iter (Sketch.add s) values;
  s

(* A sketch as its count and its answer at every rank, which its
   buckets determine. *)
let sketch_repr s =
  let n = Sketch.count s in
  (n, List.init n (fun r -> Sketch.quantile_opt s (float_of_int (r + 1) /. float_of_int n)))

let qcheck_sketch_merge_associative =
  QCheck.Test.make ~count:200 ~name:"sketch merge is associative and lossless"
    (QCheck.triple arb_values arb_values arb_values)
    (fun (a, b, c) ->
      let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
      let left = Sketch.merge (Sketch.merge sa sb) sc in
      let right = Sketch.merge sa (Sketch.merge sb sc) in
      let flat = sketch_of (a @ b @ c) in
      sketch_repr left = sketch_repr right
      && sketch_repr left = sketch_repr flat
      && sketch_repr (Sketch.merge sa sb) = sketch_repr (Sketch.merge sb sa))

let test_sketch_edges () =
  let s = Sketch.create () in
  (try
     ignore (Sketch.quantile s 0.5);
     Alcotest.fail "empty quantile accepted"
   with Invalid_argument _ -> ());
  check Alcotest.bool "empty quantile_opt is None" true
    (Sketch.quantile_opt s 0.5 = None);
  (* a single sample answers every quantile with itself *)
  let one = Sketch.create () in
  Sketch.add one 7.25;
  check (Alcotest.float 1e-6) "single-sample p0" 7.25 (Sketch.quantile one 0.0);
  check (Alcotest.float 1e-6) "single-sample p50" 7.25 (Sketch.quantile one 0.5);
  check (Alcotest.float 1e-6) "single-sample p100" 7.25
    (Sketch.quantile one 1.0);
  check Alcotest.bool "single-sample quantile_opt is Some" true
    (Sketch.quantile_opt one 0.5 = Some (Sketch.quantile one 0.5));
  Sketch.add s 0.0;
  check (Alcotest.float 0.0) "zero-only p50" 0.0 (Sketch.quantile s 0.5);
  (try
     Sketch.add s (-1.0);
     Alcotest.fail "negative value accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Sketch.quantile s 1.5);
    Alcotest.fail "q > 1 accepted"
  with Invalid_argument _ -> ()

(* ----- pre-copy dirty-page convergence ----- *)

let precopy_config c =
  Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm

let loaded_source c =
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  p

(* A no-write pre-copy (one round, everything lands resident): its
   resident set is the candidate page set pre-copy round 1 ships. Built
   on first use, not when the suite list is. *)
let no_write_precopy =
  lazy
    (let c = Registry_helpers.compute () in
     Session.precopy (precopy_config c) (loaded_source c)
       ~advance:(fun _ -> ())
       ~max_rounds:5 ~downtime_budget_ms:0.0)

let candidate_pages () = (Lazy.force no_write_precopy).Session.pcs_resident

let test_no_write_precopy () =
  let st = Lazy.force no_write_precopy in
  check Alcotest.int "no-write pre-copy is one round" 1
    (List.length st.Session.pcs_rounds);
  check
    Alcotest.(list int)
    "no-write pre-copy leaves nothing residual" [] st.Session.pcs_residual

let poke_pages p pages =
  List.iter
    (fun pn ->
      let addr = Int64.of_int (pn * Layout.page_size) in
      Process.poke_data p addr 0xD1A7_F00DL)
    pages

(* Random sub-multiset of the candidate pages (indices may repeat) plus
   a writer mode: [`Every_round] keeps re-dirtying the same set —
   pre-copy must stop on the non-shrinking rule and hand the set over as
   residual; [`First_round_only] dirties once — pre-copy must converge
   with an empty residual. *)
let gen_write_set rand =
  let candidates = candidate_pages () in
  QCheck.Gen.(
    let n = List.length candidates in
    pair
      (list_size (int_range 0 (max 1 (n - 1)))
         (int_range 0 (n - 1) >|= List.nth candidates))
      (oneofl [ `Every_round; `First_round_only ]))
    rand

let arb_write_set =
  QCheck.make
    ~print:(fun (pages, mode) ->
      Printf.sprintf "%s %s"
        (match mode with
         | `Every_round -> "every-round"
         | `First_round_only -> "first-round-only")
        (String.concat "," (List.map string_of_int pages)))
    gen_write_set

let qcheck_precopy_convergence =
  QCheck.Test.make ~count:60
    ~name:"pre-copy converges; no dirtied page is lost" arb_write_set
    (fun (pages, mode) ->
      let c = Registry_helpers.compute () and candidates = candidate_pages () in
      let w = List.sort_uniq Int.compare pages in
      let p = loaded_source c in
      let calls = ref 0 in
      let st =
        Session.precopy (precopy_config c) p
          ~advance:(fun _ ->
            incr calls;
            match mode with
            | `Every_round -> poke_pages p w
            | `First_round_only -> if !calls = 1 then poke_pages p w)
          ~max_rounds:5 ~downtime_budget_ms:0.0
      in
      check Alcotest.bool "tracking disabled on exit" true
        (Registry_helpers.tracks_no_dirty_pages p.Process.mem);
      let resident = st.Session.pcs_resident
      and residual = st.Session.pcs_residual in
      (* resident/residual partition the candidate set exactly *)
      check
        Alcotest.(list int)
        "resident + residual = candidates" candidates
        (List.sort Int.compare (resident @ residual));
      check Alcotest.bool "resident and residual disjoint" true
        (List.for_all (fun pn -> not (List.mem pn residual)) resident);
      let rounds = List.length st.Session.pcs_rounds in
      check Alcotest.bool "round count within cap" true
        (rounds >= 1 && rounds <= 5);
      (* every round's page count is accounted in the multiset total *)
      check Alcotest.int "pages_sent is the sum over rounds"
        (List.fold_left ( + ) 0 st.Session.pcs_rounds)
        st.Session.pcs_pages_sent;
      (match mode with
       | `Every_round ->
         (* the permanently-hot set must come out residual: transferred
            rounds ∪ residual ⊇ dirtied pages, with nothing lost *)
         check Alcotest.(list int) "hot set handed over as residual" w residual
       | `First_round_only ->
         check Alcotest.(list int) "one-shot dirty set converges" [] residual;
         if w <> [] then
           check Alcotest.int "dirtied pages were re-shipped, not lost"
             (List.length candidates + List.length w)
             st.Session.pcs_pages_sent);
      true)

(* ----- downtime-budget policy ----- *)

let test_budget_policy () =
  let e =
    { Budget.e_image_bytes = 1_000_000;
      e_residual_bytes = 50_000;
      e_fixed_ms = 40.0;
      e_lazy_fixed_ms = 12.0;
      e_wire_ns_per_byte = 100.0 }
  in
  (* wire: 0.1 ms per 1000 bytes -> image 100 ms, residual 5 ms *)
  check (Alcotest.float 1e-9) "vanilla downtime" 140.0
    (Budget.downtime_ms e Budget.Vanilla);
  check (Alcotest.float 1e-9) "precopy downtime" 45.0
    (Budget.downtime_ms e Budget.Precopy);
  check (Alcotest.float 1e-9) "hybrid downtime" 12.0
    (Budget.downtime_ms e Budget.Hybrid);
  let name b = Budget.mechanism_name (Budget.choose ~budget_ms:b e) in
  check Alcotest.string "generous budget -> vanilla" "vanilla" (name 200.0);
  check Alcotest.string "medium budget -> precopy" "precopy" (name 60.0);
  check Alcotest.string "tight budget -> hybrid" "hybrid" (name 20.0);
  check Alcotest.string "impossible budget -> least-bad" "hybrid" (name 1.0);
  (* monotone: a larger budget never picks a mechanism later in the
     preference order *)
  let order m =
    match Budget.mechanism_name m with
    | "vanilla" -> 0 | "precopy" -> 1 | "hybrid" -> 2 | _ -> 3
  in
  let budgets = [ 1.0; 5.0; 11.0; 12.0; 44.0; 45.0; 100.0; 139.0; 140.0; 500.0 ] in
  List.iter2
    (fun lo hi ->
      check Alcotest.bool
        (Printf.sprintf "choice at %.0f no later than at %.0f" hi lo)
        true
        (order (Budget.choose ~budget_ms:hi e)
         <= order (Budget.choose ~budget_ms:lo e)))
    (List.filteri (fun i _ -> i < List.length budgets - 1) budgets)
    (List.tl budgets);
  check Alcotest.bool "round-trip names" true
    (List.for_all
       (fun m -> Budget.mechanism_of_string (Budget.mechanism_name m) = Some m)
       Budget.[ Vanilla; Precopy; Hybrid; Postcopy ])

(* ----- arrival process ----- *)

let test_arrival_deterministic () =
  let take n a = List.init n (fun _ -> Arrival.next a) in
  let states = [| (2.0, 30.0); (8.0, 10.0) |] in
  let a1 = take 5_000 (Arrival.mmpp ~seed:7L states) in
  let a2 = take 5_000 (Arrival.mmpp ~seed:7L states) in
  check Alcotest.bool "same seed, same arrival stream" true (a1 = a2);
  let a3 = take 5_000 (Arrival.mmpp ~seed:8L states) in
  check Alcotest.bool "different seed, different stream" true (a1 <> a3);
  check Alcotest.bool "arrivals nondecreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, 0.0) a1));
  (* empirical rate within 10% of the hold-weighted mean *)
  let a = Arrival.mmpp ~seed:42L states in
  let n = 200_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := Arrival.next a
  done;
  let measured = float_of_int n /. !last in
  (* hold-weighted mean rate: (2 * 30 + 8 * 10) / (30 + 10) *)
  let expected = 3.5 in
  check Alcotest.bool
    (Printf.sprintf "mean rate %.3f within 10%% of %.3f" measured expected)
    true
    (Float.abs (measured -. expected) /. expected < 0.10);
  (try
     ignore (Arrival.mmpp ~seed:1L [||]);
     Alcotest.fail "empty state set accepted"
   with Invalid_argument _ -> ())

(* ----- golden fingerprints: the fig7-live latency traces ----- *)

(* A trimmed fig7-live: the compute workload under open-loop load with a
   real migration, small enough for the test suite, deterministic enough
   to pin byte-identical per seed. *)
let live_cfg ~seed ~requests =
  { Loadgen.lg_seed = seed;
    lg_requests = requests;
    lg_clients = 200_000;
    lg_client_rps = 0.25;  (* 50 requests per ms *)
    lg_mmpp = Some [| (0.8, 90.0); (1.6, 30.0) |];
    lg_lanes = 4;
    lg_service_src_ms = 0.02;
    lg_service_dst_ms = 0.056;
    lg_migrate_at_ms = 150.0;
    lg_max_rounds = 4;
    lg_downtime_budget_ms = 5.0;
    lg_round_instrs = 50_000;
    lg_racks = Some (Rack.create ~racks:2 ~servers_each:2);
    lg_rack = 0 }

let live_session_cfg c ~reverse =
  let src_bin, dst_bin =
    if reverse then (c.Link.cp_arm, c.Link.cp_x86)
    else (c.Link.cp_x86, c.Link.cp_arm)
  in
  (* scale bytes like the bench (bytes_scale) so the wire actually
     matters: on the raw toy image the blackout is all fixed cost and
     the mechanisms are indistinguishable *)
  let cfg =
    { (Session.default_config ~src_bin ~dst_bin) with
      Session.cfg_bytes_scale = 1500.0 }
  in
  if reverse then
    { cfg with
      Session.cfg_src_node = Node.rpi;
      cfg_dst_node = Node.xeon;
      cfg_recode_node = Node.rpi }
  else cfg

let live_run ~seed ~reverse mech =
  let c = Registry_helpers.compute () in
  let p =
    Process.load (if reverse then c.Link.cp_arm else c.Link.cp_x86)
  in
  ignore (Process.run p ~max_instrs:120_000);
  match
    Loadgen.run (live_cfg ~seed ~requests:30_000) (live_session_cfg c ~reverse)
      p mech
  with
  | Ok st -> st
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)

(* Pinned outputs: regenerate with
     dune exec test/main_fleet.exe -- test traffic
   after an intentional model change, and update here. Hybrid runs on
   both seeds and directions; the eager and no-pre-copy branches of the
   request loop (stop-and-copy, pre-copy only, post-copy only) on the
   first seed and direction. *)
let golden_lines =
  [ ( (0x5EEDL, false, Budget.Hybrid),
      "hybrid n=30000 stalled=14201 faulted=1 blackout=193.675250 \
       p50=102.524761 p99=194.440397 p999=194.440397 mig-p50=152.951010 \
       mig-p99=194.440397 mig-p999=194.440397 fp=a910e4cac7de65ef" );
    ( (0x5EEDL, true, Budget.Hybrid),
      "hybrid n=30000 stalled=21410 faulted=1 blackout=689.557205 \
       p50=595.953718 p99=685.513147 p999=685.513147 mig-p50=620.275878 \
       mig-p99=685.513147 mig-p999=685.513147 fp=80e9b08c0fffe8c1" );
    ( (0xFACE_0FFL, false, Budget.Hybrid),
      "hybrid n=30000 stalled=13164 faulted=1 blackout=193.675250 \
       p50=115.596808 p99=190.590092 p999=194.440397 mig-p50=162.409297 \
       mig-p99=190.590092 mig-p999=194.440397 fp=91783789851e4991" );
    ( (0xFACE_0FFL, true, Budget.Hybrid),
      "hybrid n=30000 stalled=23946 faulted=1 blackout=689.557205 \
       p50=607.993187 p99=685.513147 p999=685.513147 mig-p50=620.275878 \
       mig-p99=685.513147 mig-p999=685.513147 fp=d967a8eb32dbf84a" );
    ( (0x5EEDL, false, Budget.Vanilla),
      "vanilla n=30000 stalled=16032 faulted=0 blackout=290.770387 \
       p50=223.660738 p99=290.074855 p999=290.074855 mig-p50=267.772126 \
       mig-p99=290.074855 mig-p999=290.074855 fp=d45b65ea03ce06b9" );
    ( (0x5EEDL, false, Budget.Precopy),
      "precopy n=30000 stalled=17586 faulted=0 blackout=248.662388 \
       p50=156.040929 p99=247.184167 p999=249.913955 mig-p50=186.816031 \
       mig-p99=247.184167 mig-p999=249.913955 fp=12164a708c2a47a9" );
    ( (0x5EEDL, false, Budget.Postcopy),
      "lazy n=30000 stalled=12701 faulted=2 blackout=228.615250 \
       p50=165.690293 p99=228.179137 p999=232.788816 mig-p50=223.660738 \
       mig-p99=232.788816 mig-p999=232.788816 fp=2422ce2cc9265ba9" ) ]

let test_golden_fingerprints () =
  List.iter
    (fun ((seed, reverse, mech), want) ->
      let st = live_run ~seed ~reverse mech in
      let got = Loadgen.fingerprint_line st in
      check Alcotest.string
        (Printf.sprintf "%s %s seed=%Lx" (Budget.mechanism_name mech)
           (if reverse then "arm->x86" else "x86->arm")
           seed)
        want got)
    golden_lines

let test_same_seed_byte_identical () =
  let a = live_run ~seed:77L ~reverse:false Budget.Postcopy in
  let b = live_run ~seed:77L ~reverse:false Budget.Postcopy in
  check Alcotest.string "same seed, same trace"
    (Loadgen.fingerprint_line a) (Loadgen.fingerprint_line b);
  let c = live_run ~seed:78L ~reverse:false Budget.Postcopy in
  check Alcotest.bool "different seed, different fingerprint" true
    (a.Loadgen.ls_fingerprint <> c.Loadgen.ls_fingerprint)

(* The acceptance claim of the live plane: hybrid copy degrades the
   during-migration tail less than stop-and-copy. *)
let test_hybrid_beats_vanilla_tail () =
  let v = live_run ~seed:0xBEEFL ~reverse:false Budget.Vanilla in
  let h = live_run ~seed:0xBEEFL ~reverse:false Budget.Hybrid in
  let p99 st =
    if Sketch.count st.Loadgen.ls_during = 0 then 0.0
    else Sketch.quantile st.Loadgen.ls_during 0.99
  in
  check Alcotest.bool "both saw stalled requests" true
    (Sketch.count v.Loadgen.ls_during > 0
     && Sketch.count h.Loadgen.ls_during > 0);
  check Alcotest.bool
    (Printf.sprintf "hybrid mig-p99 %.3f < vanilla mig-p99 %.3f" (p99 h) (p99 v))
    true
    (p99 h < p99 v);
  check Alcotest.bool "hybrid blackout shorter" true
    (h.Loadgen.ls_blackout_ms < v.Loadgen.ls_blackout_ms)

let suites =
  [ ( "traffic",
      [ QCheck_alcotest.to_alcotest qcheck_sketch_rank_error;
        QCheck_alcotest.to_alcotest qcheck_sketch_merge_associative;
        Alcotest.test_case "sketch edge cases" `Quick test_sketch_edges;
        Alcotest.test_case "no-write pre-copy is one round" `Quick
          test_no_write_precopy;
        QCheck_alcotest.to_alcotest qcheck_precopy_convergence;
        Alcotest.test_case "downtime-budget policy" `Quick test_budget_policy;
        Alcotest.test_case "arrival process" `Quick test_arrival_deterministic;
        Alcotest.test_case "golden fingerprints (2 seeds x 2 directions)" `Quick
          test_golden_fingerprints;
        Alcotest.test_case "same seed is byte-identical" `Quick
          test_same_seed_byte_identical;
        Alcotest.test_case "hybrid beats vanilla during-migration p99" `Quick
          test_hybrid_beats_vanilla_tail ] ) ]
