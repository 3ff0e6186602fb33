open Dapper_util
module Trace = Dapper_obs.Trace

type page_stats = {
  mutable srv_pages : int;
  mutable srv_ns : float;
  mutable srv_retransmits : int;
  mutable srv_backoff_ns : float;
}

type tx_stats = {
  mutable tx_attempts : int;
  mutable tx_retransmits : int;
  mutable tx_corrupt : int;
  mutable tx_dropped : int;
  mutable tx_fault_ns : float;
  mutable tx_backoff_ns : float;
}

(* Transmit attempts across every session, read by the wall-clock
   benchmark; everything else is counted in the per-run records above. *)
let m_tx_attempts = Dapper_obs.Metrics.counter "transport.tx.attempts"

type retry = {
  r_attempts : int;
  r_jitter : Rng.t option;
}

(* The first retry's backoff, doubling for each retry after it. *)
let backoff0_ns = 2.0e6
let backoff_multiplier = 2.0

type kind = Scp | Page_server

type t = {
  t_kind : kind;
  t_link : Link.t;
  t_name : string;
  t_cost_factor : float;  (* >= 1.0; congestion/retransmission multiplier *)
  t_retry : retry option;
}

let scp link =
  { t_kind = Scp; t_link = link; t_name = "scp/" ^ link.Link.l_name;
    t_cost_factor = 1.0; t_retry = None }

let page_server link =
  { t_kind = Page_server; t_link = link;
    t_name = "page-server/" ^ link.Link.l_name; t_cost_factor = 1.0;
    t_retry = None }

let degraded ~factor t =
  if factor < 1.0 then invalid_arg "Transport.degraded: factor < 1.0";
  { t with
    t_name = Printf.sprintf "%s (degraded x%g)" t.t_name factor;
    t_cost_factor = t.t_cost_factor *. factor }

let retrying ?(attempts = 4) ?jitter t =
  if attempts < 1 then invalid_arg "Transport.retrying: attempts < 1";
  { t with
    t_name = Printf.sprintf "retrying[%d](%s)" attempts t.t_name;
    t_retry = Some { r_attempts = attempts; r_jitter = Option.map Rng.create jitter } }

let name t = t.t_name
let link t = t.t_link
let is_lazy t = t.t_kind = Page_server

let attempts t = match t.t_retry with Some r -> r.r_attempts | None -> 1

(* Backoff before retry number [k] (0-based over failed attempts), on
   the deterministic simulated clock: the delay is charged as latency,
   never slept. With a jitter stream armed, the exponential envelope is
   decorrelated by a seeded factor in [0.5, 1.5) — each call draws once,
   so the schedule is replayable from the seed but two transports with
   different seeds never resynchronize their retries. *)
let backoff_ns t k =
  match t.t_retry with
  | None -> 0.0
  | Some r ->
    let base = backoff0_ns *. (backoff_multiplier ** float_of_int k) in
    (match r.r_jitter with
     | None -> base
     | Some rng -> base *. (0.5 +. Rng.float rng))

let transfer_ns t bytes = Link.transfer_ns t.t_link bytes *. t.t_cost_factor
let page_fetch_ns t bytes = Link.page_fetch_ns t.t_link bytes *. t.t_cost_factor

let fresh_page_stats () =
  { srv_pages = 0; srv_ns = 0.0; srv_retransmits = 0; srv_backoff_ns = 0.0 }

let fresh_tx_stats () =
  { tx_attempts = 0; tx_retransmits = 0; tx_corrupt = 0; tx_dropped = 0;
    tx_fault_ns = 0.0; tx_backoff_ns = 0.0 }

(* Cost-only sample of one demand page fetch under the fault plane: the
   round trips, injected delays and retry backoff {!fetch_page} would
   charge, without touching page contents. The live-traffic plane uses
   this to charge millions of per-request stalls without building
   images. Corrupt draws are counted as retransmissions (the cost model
   ignores the empty-payload lucky case), drops and corruptions past the
   attempt bound still cost their final round trip. Deterministic for a
   given fault schedule position. *)
let fetch_stall_ns t ?fault ~page_bytes () =
  if not (is_lazy t) then invalid_arg "Transport.fetch_stall_ns: not a lazy transport";
  let max_attempts = attempts t in
  let base = page_fetch_ns t page_bytes in
  let rec go k acc =
    let acc = acc +. base in
    match Option.bind fault (fun f -> Fault.draw f Fault.Page_fetch) with
    | Some (Fault.Drop | Fault.Corrupt _) when k + 1 < max_attempts ->
      go (k + 1) (acc +. backoff_ns t k)
    | Some (Fault.Drop | Fault.Corrupt _) -> acc
    | Some (Fault.Delay ns) -> acc +. ns
    | Some Fault.Crash | None -> acc
  in
  go 0 0.0

(* ----- checksummed transmission under the fault plane ----- *)

(* One attempt at moving the named image files: every file is
   individually exposed to the fault plane (drop a chunk mid-image,
   corrupt a byte in flight, add latency), then verified against the
   sender-side manifest. A file travels as its parts: a corruption flips
   a byte on a copy of the part it hits, so the caller's parts, which
   may be shared with a live image, are never written. *)
type attempt_outcome =
  | Delivered
  | Lost of string         (* dropped mid-image *)
  | Damaged of string      (* checksum mismatch on arrival *)

let transmit_once ?fault ~stats ~manifest files cost =
  let dropped = ref None in
  let received =
    List.map
      (fun (name, parts) ->
        match Option.bind fault (fun f -> Fault.draw f Fault.Transfer_chunk) with
        | Some Fault.Drop ->
          if !dropped = None then dropped := Some name;
          (name, parts)
        | Some (Fault.Corrupt salt) -> (name, Fault.corrupt_parts salt parts)
        | Some (Fault.Delay ns) ->
          stats.tx_fault_ns <- stats.tx_fault_ns +. ns;
          Trace.advance ns;
          cost := !cost +. ns;
          (name, parts)
        | Some Fault.Crash | None -> (name, parts))
      files
  in
  match !dropped with
  | Some name ->
    stats.tx_dropped <- stats.tx_dropped + 1;
    Lost name
  | None ->
    let damaged =
      List.find_opt
        (fun (name, parts) -> List.assoc name manifest <> Bytebuf.word64 parts)
        received
    in
    (match damaged with
     | Some (name, _) ->
       stats.tx_corrupt <- stats.tx_corrupt + 1;
       Damaged name
     | None -> Delivered)

let outcome_tag = function
  | Delivered -> "delivered"
  | Lost _ -> "lost"
  | Damaged _ -> "damaged"

let transmit t ?fault ~stats ~bytes files =
  let manifest = List.map (fun (name, parts) -> (name, Bytebuf.word64 parts)) files in
  let cost = ref 0.0 in
  let max_attempts = attempts t in
  let rec go k =
    stats.tx_attempts <- stats.tx_attempts + 1;
    Dapper_obs.Metrics.inc m_tx_attempts;
    let outcome =
      Trace.with_span ~cat:"transport" "tx-attempt"
        ~args:[ ("attempt", string_of_int (k + 1)) ]
        (fun cl ->
          cost := !cost +. transfer_ns t bytes;
          Trace.advance (transfer_ns t bytes);
          let outcome = transmit_once ?fault ~stats ~manifest files cost in
          Trace.add_arg cl "outcome" (outcome_tag outcome);
          outcome)
    in
    match outcome with
    | Delivered -> Ok !cost
    | (Lost _ | Damaged _) as failed ->
      (* Backoff precedes a retry; when no retry will follow (attempts
         exhausted), no backoff is charged — the failed transfer
         surfaces immediately. *)
      if k + 1 < max_attempts then begin
        stats.tx_retransmits <- stats.tx_retransmits + 1;
        let b = backoff_ns t k in
        stats.tx_backoff_ns <- stats.tx_backoff_ns +. b;
        cost := !cost +. b;
        Trace.leaf ~cat:"transport" "tx-backoff"
          ~args:[ ("retry", string_of_int (k + 1)) ] ~dur_ns:b;
        go (k + 1)
      end
      else
        Error
          (match failed with
           | Lost name when max_attempts > 1 ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "image transfer dropped at %s; %d attempts exhausted on %s"
                  name max_attempts t.t_name)
           | Lost name ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "image transfer dropped at %s on %s" name t.t_name)
           | Damaged name when max_attempts > 1 ->
             Dapper_error.Transfer_timeout
               (Printf.sprintf "%s failed its checksum; %d attempts exhausted on %s"
                  name max_attempts t.t_name)
           | Damaged name ->
             Dapper_error.Checksum_mismatch
               (Printf.sprintf "%s corrupted in flight on %s" name t.t_name)
           | Delivered -> assert false)
  in
  go 0

(* ----- chunked producer/consumer pipelining ----- *)

type chunk = {
  ck_index : int;
  ck_bytes : int;
  ck_ready_ns : float;
  ck_start_ns : float;
  ck_tx_ns : float;
}

type pipe_stats = {
  pp_chunks : int;
  pp_wire_ns : float;
  pp_makespan_ns : float;
  pp_exposed_ns : float;
  pp_hidden_ns : float;
  pp_schedule : chunk list;
}

(* The overlap cost model: recode produces the image in [chunk_bytes]
   slices (each slice's share of the total [recode_ns] is proportional
   to its bytes) and the wire consumes them as they become ready —
   classic two-stage pipeline makespan:

     ready_i = sum of slice recode times 1..i
     start_i = max(ready_i, wire free time)
     wire    = start_i + per-chunk transfer cost

   Per-chunk transfer cost includes the link's per-transfer latency, so
   chunking is not free — the latency overhead is the price of overlap
   and the model exposes it honestly. With a single chunk the recurrence
   degenerates to [recode_ns + transfer_ns t bytes]: exactly the
   sequential pipeline. *)
let pipeline_schedule t ~bytes ~chunk_bytes ~recode_ns =
  if bytes < 0 then invalid_arg "Transport.pipeline_schedule: bytes < 0";
  if chunk_bytes < 1 then invalid_arg "Transport.pipeline_schedule: chunk_bytes < 1";
  if recode_ns < 0.0 then invalid_arg "Transport.pipeline_schedule: recode_ns < 0";
  let n = max 1 ((bytes + chunk_bytes - 1) / chunk_bytes) in
  let chunk_size k =
    if k < n - 1 then chunk_bytes else max 0 (bytes - (chunk_bytes * (n - 1)))
  in
  let total = float_of_int (max bytes 1) in
  let ready = ref 0.0 and wire_free = ref 0.0 and wire_busy = ref 0.0 in
  let sched = ref [] in
  for k = 0 to n - 1 do
    let b = chunk_size k in
    ready := !ready +. (recode_ns *. (float_of_int b /. total));
    let tx = transfer_ns t b in
    let start = Float.max !ready !wire_free in
    wire_free := start +. tx;
    wire_busy := !wire_busy +. tx;
    sched :=
      { ck_index = k; ck_bytes = b; ck_ready_ns = !ready; ck_start_ns = start;
        ck_tx_ns = tx }
      :: !sched
  done;
  let makespan = !wire_free in
  let exposed = makespan -. recode_ns in
  { pp_chunks = n;
    pp_wire_ns = !wire_busy;
    pp_makespan_ns = makespan;
    pp_exposed_ns = exposed;
    pp_hidden_ns = recode_ns +. !wire_busy -. makespan;
    pp_schedule = List.rev !sched }

let fetch_page t ?fault stats ~page_bytes fetch pn =
  if not (is_lazy t) then invalid_arg "Transport.fetch_page: not a lazy transport";
  let max_attempts = attempts t in
  let rec go k =
    match Option.bind fault (fun f -> Fault.draw f Fault.Source_node) with
    | Some Fault.Crash ->
      Error
        (Dapper_error.Source_lost
           (Printf.sprintf "page server unreachable fetching page %d" pn))
    | _ ->
      (match fetch pn with
       | None -> Ok None
       | Some data ->
         let charge () = stats.srv_ns <- stats.srv_ns +. page_fetch_ns t page_bytes in
         let retry what =
           charge ();  (* the failed round trip still cost a round trip *)
           if k + 1 < max_attempts then begin
             stats.srv_retransmits <- stats.srv_retransmits + 1;
             (* as in [transmit]: backoff only when a retry follows *)
             let b = backoff_ns t k in
             stats.srv_ns <- stats.srv_ns +. b;
             stats.srv_backoff_ns <- stats.srv_backoff_ns +. b;
             go (k + 1)
           end
           else
             Error
               (Dapper_error.Transfer_timeout
                  (Printf.sprintf "page %d %s; %d attempts exhausted on %s" pn what
                     max_attempts t.t_name))
         in
         (match Option.bind fault (fun f -> Fault.draw f Fault.Page_fetch) with
          | Some Fault.Drop -> retry "dropped"
          | Some (Fault.Corrupt salt) ->
            (* the flip lands on a copy; only a corrupted payload needs
               its checksum *)
            let checksum = Bytebuf.word64 [ data ] in
            let damaged = Bytes.of_string data in
            Fault.corrupt_byte salt damaged;
            let damaged = Bytes.unsafe_to_string damaged in
            if Bytebuf.word64 [ damaged ] <> checksum then
              retry "failed its checksum"
            else begin
              (* the flip landed on an empty payload: delivered intact *)
              charge ();
              stats.srv_pages <- stats.srv_pages + 1;
              Ok (Some damaged)
            end
          | Some (Fault.Delay ns) ->
            stats.srv_ns <- stats.srv_ns +. ns;
            charge ();
            stats.srv_pages <- stats.srv_pages + 1;
            Ok (Some data)
          | Some Fault.Crash | None ->
            charge ();
            stats.srv_pages <- stats.srv_pages + 1;
            Ok (Some data)))
  in
  (* One leaf span per fetch whose duration is exactly what this fetch
     added to [srv_ns] (round trips, injected delays, retry backoff). *)
  let ns0 = stats.srv_ns in
  let r = go 0 in
  let ns = stats.srv_ns -. ns0 in
  Trace.leaf ~cat:"transport" "page-fetch"
    ~args:[ ("page", string_of_int pn) ] ~dur_ns:ns;
  r
