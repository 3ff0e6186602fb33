open Dapper_net
open Dapper_criu
module Session = Dapper.Session
module Derr = Dapper_util.Dapper_error

type attempt = {
  ga_outcome : (Session.outcome, Derr.t) result;
  ga_blackout_ms : float;
  ga_cancelled : Derr.stage option;
  ga_hot_pages : int;
  ga_lazy_left : int;
}

let ( let* ) = Result.bind

let spent s =
  List.fold_left (fun acc r -> acc +. r.Session.sr_ms) 0.0 (Session.stage_log s)

let run ~budget_ms (cfg : Session.config) p =
  let cancelled = ref None in
  let blackout = ref 0.0 in
  let step next s =
    let* s = next s in
    blackout := spent s;
    Ok s
  in
  let hot_pages = ref 0 in
  let lazy_left = ref 0 in
  let outcome =
    let s = Session.start cfg p in
    let* s = step Session.pause s in
    let* s = step Session.dump s in
    (let d = s.Session.s_state.Session.sd_dump in
     hot_pages := d.Dump.pages_dumped + d.Dump.pages_lazy);
    let* s = step Session.recode s in
    (* The transfer is projected analytically from the image at hand and
       the transport's current cost model, so a degraded or congested
       link is caught on the very first attempt, before any bytes move.
       Lazy transports still charge the full non-resident image here,
       i.e. the projection is conservative: a cancel can only be
       pessimistic by the post-copy share. *)
    (* [ev_image_bytes] is the unscaled footprint; the wire discounts
       pre-copied resident pages and charges the byte-scale factor, so
       the projection approximates both *)
    let resident_bytes =
      List.length cfg.Session.cfg_resident_pages
      * Dapper_binary.Layout.page_size
    in
    let bytes =
      int_of_float
        (float_of_int
           (max 0
              (s.Session.s_state.Session.sc_evidence.Session.ev_image_bytes
               - resident_bytes))
         *. cfg.Session.cfg_bytes_scale)
    in
    let tx_projected_ms =
      Transport.transfer_ns cfg.Session.cfg_transport bytes /. 1e6
    in
    (* Cancelling means rolling back real paused state through the
       ordinary 2PC path — the source resumes, nothing is stranded —
       charged as the retriable [Deadline_exceeded] instead of a blown
       blackout. *)
    let* () =
      if spent s +. tx_projected_ms > budget_ms then begin
        cancelled := Some Derr.Transfer;
        Session.rollback s;
        Error (Derr.Deadline_exceeded (Derr.Transfer, tx_projected_ms))
      end
      else Ok ()
    in
    let tx = s.Session.s_tx in
    let attempts0 = tx.Transport.tx_attempts in
    let surcharge0 = tx.Transport.tx_backoff_ns +. tx.Transport.tx_fault_ns in
    (match Session.transfer s with
     | Ok s ->
       blackout := spent s;
       let* s = step Session.restore s in
       lazy_left := List.length s.Session.s_state.Session.sf_lazy_pages;
       let* s = step Session.commit s in
       lazy_left := !lazy_left - s.Session.s_state.Session.sm_drained;
       Ok (Session.finish s)
     | Error e ->
       (* the failed wire work still stalled the paused source: charge
          the attempts and their surcharge from the shared tx ledger *)
       let wire_ms =
         (float_of_int (tx.Transport.tx_attempts - attempts0)
          *. Transport.transfer_ns cfg.Session.cfg_transport bytes
          +. (tx.Transport.tx_backoff_ns +. tx.Transport.tx_fault_ns -. surcharge0))
         /. 1e6
       in
       blackout := !blackout +. wire_ms;
       Error e)
  in
  { ga_outcome = outcome; ga_blackout_ms = !blackout;
    ga_cancelled = !cancelled; ga_hot_pages = !hot_pages;
    ga_lazy_left = !lazy_left }
