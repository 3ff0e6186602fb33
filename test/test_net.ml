open Dapper_net
module Fault = Dapper_util.Fault
module Derr = Dapper_util.Dapper_error

let check = Alcotest.check

let test_link_transfer_math () =
  (* 1.2 GB/s: 1.2e9 bytes in 1s; transfer of 12 MB ~ 10ms + 30us latency *)
  let ns = Link.transfer_ns Link.infiniband 12_000_000 in
  check Alcotest.bool "12MB over IB ~ 10ms" true (ns > 9.0e6 && ns < 11.0e6);
  check Alcotest.bool "latency floor" true
    (Link.transfer_ns Link.infiniband 0 >= 30.0e3);
  let gigabit =
    { Link.l_name = "gigabit"; l_bandwidth_mbps = 110.0; l_latency_us = 200.0 }
  in
  check Alcotest.bool "gigabit slower" true (Link.transfer_ns gigabit 12_000_000 > ns)

let test_page_fetch_latency_dominated () =
  let one_page = Link.page_fetch_ns Link.infiniband 4096 in
  (* round trip 60us dominates the ~3.4us payload *)
  check Alcotest.bool "latency dominated" true (one_page > 60.0e3 && one_page < 80.0e3)

let test_node_power_model () =
  (* paper: 108 W at 7 busy Xeon threads; 5.1 W at 3 busy Pi threads,
     from the idle and per-core watts the fleet simulators charge *)
  let power_w (n : Node.t) ~busy = n.n_idle_w +. (float_of_int busy *. n.n_core_w) in
  check (Alcotest.float 1.0) "xeon@7" 108.0 (power_w Node.xeon ~busy:7);
  check (Alcotest.float 0.2) "rpi@3" 5.1 (power_w Node.rpi ~busy:3)

let test_exec_speed_ratio () =
  let instrs = 1_000_000L in
  let ratio = Node.exec_ns Node.rpi instrs /. Node.exec_ns Node.xeon instrs in
  check Alcotest.bool "pi ~2.8x slower" true (ratio > 2.5 && ratio < 3.1)

(* ----- wrapper composition ----- *)

let test_degraded_composition () =
  let scp = Transport.scp Link.infiniband in
  let nested = Transport.degraded ~factor:2.0 (Transport.degraded ~factor:3.0 scp) in
  let bytes = 1 lsl 20 in
  check Alcotest.bool "nested factors multiply" true
    (Transport.transfer_ns nested bytes = 6.0 *. Transport.transfer_ns scp bytes);
  let server = Transport.page_server Link.infiniband in
  check Alcotest.bool "page fetches degrade too" true
    (Transport.fetch_stall_ns
       (Transport.degraded ~factor:2.0 (Transport.degraded ~factor:3.0 server))
       ~page_bytes:4096 ()
     = 6.0 *. Transport.fetch_stall_ns server ~page_bytes:4096 ());
  check Alcotest.string "name reflects the nesting"
    "scp/infiniband (degraded x3) (degraded x2)" (Transport.name nested);
  check Alcotest.bool "factor < 1 rejected" true
    (match Transport.degraded ~factor:0.99 scp with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The attempts a transmit makes before giving up on a certain drop. *)
let attempts_under_drop t =
  let stats = Transport.fresh_tx_stats () in
  let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 1.0 } in
  ignore (Transport.transmit t ~fault ~stats ~bytes:4096 [ ("a.img", [ "a" ]) ]);
  stats.Transport.tx_attempts

let test_retrying_policy () =
  let scp = Transport.scp Link.infiniband in
  check Alcotest.int "bare transport: one attempt" 1 (attempts_under_drop scp);
  let r = Transport.retrying scp in
  check Alcotest.int "default four attempts" 4 (attempts_under_drop r);
  check Alcotest.string "name reflects the policy" "retrying[4](scp/infiniband)"
    (Transport.name r);
  check Alcotest.string "composes with degradation"
    "retrying[4](scp/infiniband (degraded x2))"
    (Transport.name (Transport.retrying (Transport.degraded ~factor:2.0 scp)));
  check Alcotest.bool "attempts < 1 rejected" true
    (match Transport.retrying ~attempts:0 scp with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ----- checksummed transmission under the fault plane ----- *)

let files = [ ("a.img", [ "aaaa-payload" ]); ("b.img", [ "bbbb-payload" ]) ]

let test_transmit_clean () =
  let t = Transport.scp Link.infiniband in
  let stats = Transport.fresh_tx_stats () in
  match Transport.transmit t ~stats ~bytes:4096 files with
  | Error e -> Alcotest.fail (Derr.to_string e)
  | Ok ns ->
    check Alcotest.bool "cost is exactly one transfer" true
      (ns = Transport.transfer_ns t 4096);
    check Alcotest.int "one attempt" 1 stats.Transport.tx_attempts;
    check Alcotest.int "no retransmits" 0 stats.Transport.tx_retransmits;
    check Alcotest.bool "no fault latency" true (stats.Transport.tx_fault_ns = 0.0)

let test_transmit_drop_and_recovery () =
  (* certain drop, no retry policy: the transfer times out (retriable) *)
  let t = Transport.scp Link.infiniband in
  let stats = Transport.fresh_tx_stats () in
  let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 1.0 } in
  (match Transport.transmit t ~fault ~stats ~bytes:4096 files with
   | Error (Derr.Transfer_timeout _ as e) ->
     check Alcotest.bool "timeout is retriable" true (Derr.retriable e)
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "certain drop cannot deliver");
  check Alcotest.int "drop recorded" 1 stats.Transport.tx_dropped;
  (* certain drop, three attempts: every attempt fails, backoff charged *)
  let stats = Transport.fresh_tx_stats () in
  let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 1.0 } in
  (match
     Transport.transmit (Transport.retrying ~attempts:3 t) ~fault ~stats
       ~bytes:4096 files
   with
   | Error (Derr.Transfer_timeout _) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "certain drop cannot deliver");
  check Alcotest.int "three attempts" 3 stats.Transport.tx_attempts;
  check Alcotest.int "two retransmissions" 2 stats.Transport.tx_retransmits;
  check Alcotest.bool "backoff charged as backoff, not fault latency" true
    (stats.Transport.tx_backoff_ns > 0.0 && stats.Transport.tx_fault_ns = 0.0)

(* The backoff the tallies charge must equal the closed-form sum over
   the retries that actually followed a failure: with [attempts]
   tries, [attempts - 1] backoffs — none after the final attempt. A
   jitter-free retrying transport waits 2 ms before its first retry and
   doubles the wait before each next one, so [failures] failed
   attempts cost [sum_{k=0}^{failures-2} 2 ms * 2^k]. *)
let closed_form_backoff_ns ~failures =
  let rec go k acc =
    if k >= failures - 1 then acc else go (k + 1) (acc +. (2.0e6 *. (2.0 ** float_of_int k)))
  in
  go 0 0.0

let test_backoff_closed_form () =
  let mk attempts = Transport.retrying ~attempts (Transport.scp Link.infiniband) in
  (* 2 ms + 4 ms, and nothing for the third (final) failure *)
  check (Alcotest.float 0.0) "closed form: 3 failures" 6.0e6
    (closed_form_backoff_ns ~failures:3);
  check (Alcotest.float 0.0) "closed form: 1 failure, no retry" 0.0
    (closed_form_backoff_ns ~failures:1);
  (* certain drop: every attempt fails, so the charged backoff must be
     exactly the closed form for [attempts] failures *)
  List.iter
    (fun attempts ->
      let t = mk attempts in
      let stats = Transport.fresh_tx_stats () in
      let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 1.0 } in
      (match Transport.transmit t ~fault ~stats ~bytes:4096 files with
       | Error (Derr.Transfer_timeout _) -> ()
       | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
       | Ok _ -> Alcotest.fail "certain drop cannot deliver");
      check (Alcotest.float 0.0)
        (Printf.sprintf "charged backoff equals closed form (%d attempts)" attempts)
        (closed_form_backoff_ns ~failures:attempts)
        stats.Transport.tx_backoff_ns)
    [ 1; 2; 3; 4 ];
  (* same invariant on the page-fetch path *)
  let t = Transport.retrying ~attempts:3 (Transport.page_server Link.infiniband) in
  let stats = Transport.fresh_page_stats () in
  let fault = Fault.make ~seed:3 { Fault.calm with Fault.fs_drop = 1.0 } in
  let serve pn = if pn = 7 then Some (String.make 4096 'p') else None in
  (match Transport.fetch_page t ~fault stats ~page_bytes:4096 serve 7 with
   | Error (Derr.Transfer_timeout _) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "certain drop cannot deliver");
  check (Alcotest.float 0.0) "page backoff equals closed form" 6.0e6
    stats.Transport.srv_backoff_ns;
  check Alcotest.bool "backoff included in srv_ns" true
    (stats.Transport.srv_ns >= stats.Transport.srv_backoff_ns)

let test_transmit_corruption_detected () =
  let t = Transport.scp Link.infiniband in
  (* certain corruption, no retry policy: checksum mismatch surfaces *)
  let stats = Transport.fresh_tx_stats () in
  let fault = Fault.make ~seed:7 { Fault.calm with Fault.fs_corrupt = 1.0 } in
  (match Transport.transmit t ~fault ~stats ~bytes:4096 files with
   | Error (Derr.Checksum_mismatch _ as e) ->
     check Alcotest.bool "mismatch is retriable" true (Derr.retriable e)
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "corruption must not deliver");
  check Alcotest.bool "corruption detected" true (stats.Transport.tx_corrupt > 0)

(* Every byte of every file is under the checksum: with certain
   corruption and no retry policy, a one-file set of each length is
   rejected whichever byte the fault plane flips, tail bytes included. *)
let test_transmit_corruption_every_length () =
  let t = Transport.scp Link.infiniband in
  List.iter
    (fun len ->
      let files =
        [ ("core-1.img", [ String.init len (fun i -> Char.chr ((i * 131 + 7) land 0xFF)) ]) ]
      in
      for seed = 1 to 200 do
        let stats = Transport.fresh_tx_stats () in
        let fault = Fault.make ~seed { Fault.calm with Fault.fs_corrupt = 1.0 } in
        match Transport.transmit t ~fault ~stats ~bytes:len files with
        | Error (Derr.Checksum_mismatch _) -> ()
        | Error e ->
          Alcotest.failf "%d bytes, seed %d: wrong error: %s" len seed (Derr.to_string e)
        | Ok _ -> Alcotest.failf "%d bytes, seed %d: corruption delivered" len seed
      done)
    (List.init 17 (fun i -> i + 1) @ [ 4099 ])

(* A file sent as parts, as a page table goes: three pages and a 5-byte
   tail. Certain corruption is caught on every seed, and lands on a copy
   of the part it hits: the caller's parts, which a live image shares,
   keep their bytes. *)
let test_transmit_parts_corruption () =
  let t = Transport.scp Link.infiniband in
  let parts =
    List.init 3 (fun k -> String.init 4096 (fun i -> Char.chr (((i * 7) + k) land 0xFF)))
    @ [ "tail!" ]
  in
  let pristine = List.map (fun p -> String.init (String.length p) (String.get p)) parts in
  let bytes = (3 * 4096) + 5 in
  for seed = 1 to 200 do
    let stats = Transport.fresh_tx_stats () in
    let fault = Fault.make ~seed { Fault.calm with Fault.fs_corrupt = 1.0 } in
    match Transport.transmit t ~fault ~stats ~bytes [ ("pages-1.img", parts) ] with
    | Error (Derr.Checksum_mismatch _) -> ()
    | Error e -> Alcotest.failf "seed %d: wrong error: %s" seed (Derr.to_string e)
    | Ok _ -> Alcotest.failf "seed %d: corruption delivered" seed
  done;
  check Alcotest.(list string) "caller's parts unchanged" pristine parts

let test_transmit_delay_survives () =
  (* certain delay: delivery succeeds, the added latency is accounted *)
  let t = Transport.scp Link.infiniband in
  let stats = Transport.fresh_tx_stats () in
  let fault =
    Fault.make ~seed:9
      { Fault.calm with Fault.fs_delay = 1.0; fs_delay_ns = 7.0e6 }
  in
  match Transport.transmit t ~fault ~stats ~bytes:4096 files with
  | Error e -> Alcotest.fail (Derr.to_string e)
  | Ok ns ->
    (* one 7 ms delay per file *)
    check Alcotest.bool "delays charged to the wire time" true
      (abs_float (ns -. (Transport.transfer_ns t 4096 +. 14.0e6)) < 1.0);
    check Alcotest.bool "delays accounted as fault latency" true
      (stats.Transport.tx_fault_ns = 14.0e6)

(* ----- fault-aware page fetches ----- *)

let page = String.make 4096 'p'
let fetch pn = if pn = 7 then Some page else None

let test_fetch_page_paths () =
  let t = Transport.retrying ~attempts:3 (Transport.page_server Link.infiniband) in
  let stats = Transport.fresh_page_stats () in
  (* clean fetch *)
  (match Transport.fetch_page t stats ~page_bytes:4096 fetch 7 with
   | Ok (Some data) -> check Alcotest.bool "page intact" true (String.equal data page)
   | _ -> Alcotest.fail "clean fetch must succeed");
  check Alcotest.int "one page served" 1 stats.Transport.srv_pages;
  (* a missing page is not a fault *)
  (match Transport.fetch_page t stats ~page_bytes:4096 fetch 8 with
   | Ok None -> ()
   | _ -> Alcotest.fail "missing page must be Ok None");
  (* certain drop: retries then times out, retransmissions counted *)
  let fault = Fault.make ~seed:3 { Fault.calm with Fault.fs_drop = 1.0 } in
  (match Transport.fetch_page t ~fault stats ~page_bytes:4096 fetch 7 with
   | Error (Derr.Transfer_timeout _) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "certain drop cannot deliver");
  check Alcotest.int "two retransmissions" 2 stats.Transport.srv_retransmits;
  (* certain corruption: every copy fails its checksum on arrival, so
     nothing damaged is delivered; the fetch retries, then times out *)
  let cstats = Transport.fresh_page_stats () in
  let fault = Fault.make ~seed:3 { Fault.calm with Fault.fs_corrupt = 1.0 } in
  (match Transport.fetch_page t ~fault cstats ~page_bytes:4096 fetch 7 with
   | Error (Derr.Transfer_timeout _) -> ()
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "certain corruption cannot deliver");
  check Alcotest.int "corrupt copies retransmitted" 2 cstats.Transport.srv_retransmits;
  check Alcotest.int "no page served" 0 cstats.Transport.srv_pages;
  (* source crash: the page server is gone; structural, migration must
     roll back rather than retry against a dead node *)
  let fault = Fault.make ~seed:3 { Fault.calm with Fault.fs_crash_source = 1.0 } in
  (match Transport.fetch_page t ~fault stats ~page_bytes:4096 fetch 7 with
   | Error (Derr.Source_lost _ as e) ->
     check Alcotest.bool "source loss is structural" true (not (Derr.retriable e))
   | Error e -> Alcotest.fail ("wrong error: " ^ Derr.to_string e)
   | Ok _ -> Alcotest.fail "crashed source cannot serve");
  (* eager transports have no page path *)
  check Alcotest.bool "eager transport rejected" true
    (match
       Transport.fetch_page (Transport.scp Link.infiniband) stats ~page_bytes:4096
         fetch 7
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ----- sharded job queue ----- *)

let test_shard_queue_round_robin () =
  let q = Shard_queue.create ~shards:3 [ 0; 1; 2; 3; 4; 5; 6 ] in
  (* item i lands in shard i mod 3: shard 0 holds 0,3,6 *)
  check Alcotest.bool "home pops in FIFO order" true
    (Shard_queue.pop q ~shard:0 = Some 0 && Shard_queue.pop q ~shard:0 = Some 3);
  check Alcotest.int "no steals yet" 0 (Shard_queue.steals q);
  check Alcotest.bool "peek agrees with pop" true
    (Shard_queue.peek q ~shard:1 = Some 1 && Shard_queue.pop q ~shard:1 = Some 1);
  check Alcotest.bool "push goes to the named shard" true
    (Shard_queue.push q ~shard:1 99;
     Shard_queue.pop q ~shard:1 = Some 4 && Shard_queue.pop q ~shard:1 = Some 99)

let test_shard_queue_stealing () =
  let q = Shard_queue.create ~shards:3 [ 0; 1; 2 ] in
  (* drain shard 0's home item, then steal cyclically: 1 (shard 1), 2 (shard 2) *)
  check Alcotest.bool "home first" true (Shard_queue.pop q ~shard:0 = Some 0);
  check Alcotest.bool "steals from next shard" true
    (Shard_queue.pop q ~shard:0 = Some 1);
  check Alcotest.bool "then the one after" true (Shard_queue.pop q ~shard:0 = Some 2);
  check Alcotest.int "two steals counted" 2 (Shard_queue.steals q);
  check Alcotest.bool "dry everywhere" true
    (Shard_queue.pop q ~shard:0 = None && Shard_queue.is_empty q);
  check Alcotest.bool "zero shards rejected" true
    (match Shard_queue.create ~shards:0 [] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_shard_queue_deterministic () =
  let drain shards n =
    let q = Shard_queue.create ~shards (List.init n Fun.id) in
    let rec go shard acc =
      match Shard_queue.pop q ~shard with
      | None -> List.rev acc
      | Some x -> go ((shard + 1) mod shards) (x :: acc)
    in
    go 0 []
  in
  check Alcotest.bool "identical runs pop identically" true
    (drain 4 64 = drain 4 64);
  check Alcotest.bool "every item pops exactly once" true
    (List.sort compare (drain 4 64) = List.init 64 Fun.id)

(* ----- per-rack page-server pools ----- *)

let test_rack_pooling () =
  let r = Rack.create ~racks:2 ~servers_each:2 in
  (* two servers: two transfers run in parallel, the third queues *)
  check (Alcotest.float 1e-9) "first free server" 10.0
    (Rack.acquire r ~rack:0 ~now_ms:0.0 ~service_ms:10.0);
  check (Alcotest.float 1e-9) "second free server" 10.0
    (Rack.acquire r ~rack:0 ~now_ms:0.0 ~service_ms:10.0);
  check (Alcotest.float 1e-9) "third transfer queues" 20.0
    (Rack.acquire r ~rack:0 ~now_ms:0.0 ~service_ms:10.0);
  check (Alcotest.float 1e-9) "queueing delay accounted" 10.0 (Rack.queue_delay_ms r);
  (* the other rack is unaffected *)
  check (Alcotest.float 1e-9) "racks are independent" 5.0
    (Rack.acquire r ~rack:1 ~now_ms:0.0 ~service_ms:5.0);
  (* wait estimate books nothing *)
  check (Alcotest.float 1e-9) "wait estimate" 10.0 (Rack.wait_ms r ~rack:0 ~now_ms:0.0);
  check (Alcotest.float 1e-9) "estimate is free" 10.0 (Rack.wait_ms r ~rack:0 ~now_ms:0.0);
  (* a late arrival starts at its own clock, not the server's *)
  check (Alcotest.float 1e-9) "idle server serves immediately" 105.0
    (Rack.acquire r ~rack:0 ~now_ms:100.0 ~service_ms:5.0)

let test_rack_striping_and_validation () =
  check Alcotest.int "node striping" 1 (Rack.rack_of_node ~racks:4 ~node:5);
  check Alcotest.bool "bad config rejected" true
    (match Rack.create ~racks:0 ~servers_each:1 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let r = Rack.create ~racks:1 ~servers_each:1 in
  check Alcotest.bool "rack out of range" true
    (match Rack.acquire r ~rack:9 ~now_ms:0.0 ~service_ms:1.0 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check Alcotest.bool "negative service rejected" true
    (match Rack.acquire r ~rack:0 ~now_ms:0.0 ~service_ms:(-1.0) with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ----- chunked producer/consumer pipeline schedule ----- *)

let test_pipeline_single_chunk_degenerates () =
  (* chunk_bytes >= bytes: exactly the sequential pipeline *)
  let t = Transport.scp Link.infiniband in
  let bytes = 100_000 in
  let s = Transport.pipeline_schedule t ~bytes ~chunk_bytes:(bytes * 2)
            ~recode_ns:5.0e6 in
  check Alcotest.int "one chunk" 1 s.Transport.pp_chunks;
  check (Alcotest.float 1e-6) "exposed = sequential transfer"
    (Transport.transfer_ns t bytes) s.Transport.pp_exposed_ns;
  check (Alcotest.float 1e-6) "nothing hidden" 0.0 s.Transport.pp_hidden_ns

let test_pipeline_invariants () =
  let t = Transport.scp Link.infiniband in
  let bytes = 1 lsl 20 in
  List.iter
    (fun (chunk_bytes, recode_ns) ->
      let s = Transport.pipeline_schedule t ~bytes ~chunk_bytes ~recode_ns in
      let seq = Transport.transfer_ns t bytes in
      (* the overlap can only help: exposed tail never exceeds the
         sequential wire cost plus the chunking latency overhead *)
      check Alcotest.bool "hidden bounded by recode" true
        (s.Transport.pp_hidden_ns <= recode_ns +. 1e-6);
      check Alcotest.bool "hidden bounded by wire busy" true
        (s.Transport.pp_hidden_ns <= s.Transport.pp_wire_ns +. 1e-6);
      check Alcotest.bool "exposed >= last chunk tx" true
        (match List.rev s.Transport.pp_schedule with
         | last :: _ -> s.Transport.pp_exposed_ns >= last.Transport.ck_tx_ns -. 1e-6
         | [] -> false);
      check Alcotest.bool "makespan = recode + exposed" true
        (abs_float
           (s.Transport.pp_makespan_ns
            -. (recode_ns +. s.Transport.pp_exposed_ns)) < 1e-3);
      check Alcotest.bool "conservation: makespan >= max(recode, wire)" true
        (s.Transport.pp_makespan_ns >= max recode_ns s.Transport.pp_wire_ns -. 1e-3);
      (* chunked wire busy time covers at least the sequential cost
         (chunking adds per-transfer latency, never removes payload) *)
      check Alcotest.bool "wire busy >= sequential" true
        (s.Transport.pp_wire_ns >= seq -. 1e-3))
    [ (4096, 0.0); (4096, 2.0e6); (65536, 2.0e6); (65536, 50.0e6);
      (262_144, 0.5e6) ]

let test_pipeline_rejects_garbage () =
  let t = Transport.scp Link.infiniband in
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "negative bytes" true
    (bad (fun () -> Transport.pipeline_schedule t ~bytes:(-1) ~chunk_bytes:4096
                      ~recode_ns:0.0));
  check Alcotest.bool "zero chunk" true
    (bad (fun () -> Transport.pipeline_schedule t ~bytes:4096 ~chunk_bytes:0
                      ~recode_ns:0.0));
  check Alcotest.bool "negative recode" true
    (bad (fun () -> Transport.pipeline_schedule t ~bytes:4096 ~chunk_bytes:4096
                      ~recode_ns:(-1.0)))

(* fetch_stall_ns: the cost-only mirror of fetch_page the live-traffic
   plane charges millions of request stalls through. *)
let test_fetch_stall_sampling () =
  let t = Transport.page_server Link.infiniband in
  let clean = Transport.fetch_stall_ns t ~page_bytes:4096 () in
  check (Alcotest.float 0.0) "clean stall = one page fetch"
    (Link.page_fetch_ns Link.infiniband 4096) clean;
  check (Alcotest.float 0.0) "deterministic without faults" clean
    (Transport.fetch_stall_ns t ~page_bytes:4096 ());
  (* a delay-injecting schedule costs strictly more than the clean path *)
  let delayed =
    let fault =
      Fault.make ~seed:9
        { Fault.calm with Fault.fs_delay = 1.0; fs_delay_ns = 5.0e6 }
    in
    Transport.fetch_stall_ns t ~fault ~page_bytes:4096 ()
  in
  check Alcotest.bool "injected delay adds latency" true (delayed > clean);
  (* drops under a retrying wrapper pay round trips plus backoff *)
  let retried =
    let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 0.9 } in
    Transport.fetch_stall_ns
      (Transport.retrying ~attempts:4 t)
      ~fault ~page_bytes:4096 ()
  in
  check Alcotest.bool "retried fetch costs more than clean" true
    (retried > clean);
  (* same schedule position, same sample *)
  let again =
    let fault = Fault.make ~seed:5 { Fault.calm with Fault.fs_drop = 0.9 } in
    Transport.fetch_stall_ns
      (Transport.retrying ~attempts:4 t)
      ~fault ~page_bytes:4096 ()
  in
  check (Alcotest.float 0.0) "fault schedule replay is deterministic" retried
    again;
  try
    ignore (Transport.fetch_stall_ns (Transport.scp Link.infiniband)
              ~page_bytes:4096 ());
    Alcotest.fail "eager transport accepted a fault sample"
  with Invalid_argument _ -> ()

let test_rack_acquire_wait () =
  let t = Rack.create ~racks:1 ~servers_each:1 in
  let finish, wait = Rack.acquire_wait t ~rack:0 ~now_ms:0.0 ~service_ms:5.0 in
  check (Alcotest.float 0.0) "idle server: no wait" 0.0 wait;
  check (Alcotest.float 0.0) "idle server: finish = service" 5.0 finish;
  (* estimate agrees with what the next acquire will actually be charged *)
  check (Alcotest.float 0.0) "wait_ms estimate matches" 4.0
    (Rack.wait_ms t ~rack:0 ~now_ms:1.0);
  let finish, wait = Rack.acquire_wait t ~rack:0 ~now_ms:1.0 ~service_ms:5.0 in
  check (Alcotest.float 0.0) "busy server: queued behind" 4.0 wait;
  check (Alcotest.float 0.0) "busy server: finish stacked" 10.0 finish;
  (* acquire is acquire_wait without the wait component *)
  check (Alcotest.float 0.0) "acquire = fst acquire_wait" 15.0
    (Rack.acquire t ~rack:0 ~now_ms:2.0 ~service_ms:5.0)

let suites =
  [ ( "net",
      [ Alcotest.test_case "link transfer math" `Quick test_link_transfer_math;
        Alcotest.test_case "page fetch latency" `Quick test_page_fetch_latency_dominated;
        Alcotest.test_case "node power model" `Quick test_node_power_model;
        Alcotest.test_case "exec speed ratio" `Quick test_exec_speed_ratio;
        Alcotest.test_case "degraded composes" `Quick test_degraded_composition;
        Alcotest.test_case "retrying policy" `Quick test_retrying_policy;
        Alcotest.test_case "transmit: clean" `Quick test_transmit_clean;
        Alcotest.test_case "transmit: drop + recovery" `Quick
          test_transmit_drop_and_recovery;
        Alcotest.test_case "backoff closed form" `Quick test_backoff_closed_form;
        Alcotest.test_case "transmit: corruption detected" `Quick
          test_transmit_corruption_detected;
        Alcotest.test_case "transmit: corruption detected at every length" `Quick
          test_transmit_corruption_every_length;
        Alcotest.test_case "transmit: corruption of a file in parts" `Quick
          test_transmit_parts_corruption;
        Alcotest.test_case "transmit: delay survives" `Quick test_transmit_delay_survives;
        Alcotest.test_case "fetch_page: fault paths" `Quick test_fetch_page_paths;
        Alcotest.test_case "shard queue: round robin" `Quick
          test_shard_queue_round_robin;
        Alcotest.test_case "shard queue: deterministic stealing" `Quick
          test_shard_queue_stealing;
        Alcotest.test_case "shard queue: whole-queue determinism" `Quick
          test_shard_queue_deterministic;
        Alcotest.test_case "fetch stall sampling" `Quick test_fetch_stall_sampling;
        Alcotest.test_case "rack: acquire_wait accounting" `Quick
          test_rack_acquire_wait;
        Alcotest.test_case "rack: page-server pooling" `Quick test_rack_pooling;
        Alcotest.test_case "rack: striping and validation" `Quick
          test_rack_striping_and_validation;
        Alcotest.test_case "pipeline: single chunk degenerates" `Quick
          test_pipeline_single_chunk_degenerates;
        Alcotest.test_case "pipeline: schedule invariants" `Quick
          test_pipeline_invariants;
        Alcotest.test_case "pipeline: rejects garbage" `Quick
          test_pipeline_rejects_garbage ] ) ]
