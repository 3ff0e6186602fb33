type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type cfg = {
  b_failure_threshold : int;
  b_open_ms : float;
  b_probe_successes : int;
}

let default_cfg =
  { b_failure_threshold = 3; b_open_ms = 250.0; b_probe_successes = 2 }

type t = {
  c : cfg;
  mutable b_state : state;
  mutable b_consec_failures : int;
  mutable b_probe_wins : int;
  mutable b_probe_at : float;  (* when Open, the earliest probe time *)
  mutable b_trips : int;
}

let create ?(cfg = default_cfg) () =
  if cfg.b_failure_threshold < 1 then
    invalid_arg "Breaker.create: failure threshold < 1";
  if cfg.b_open_ms < 0.0 then invalid_arg "Breaker.create: open_ms < 0";
  if cfg.b_probe_successes < 1 then
    invalid_arg "Breaker.create: probe_successes < 1";
  { c = cfg; b_state = Closed; b_consec_failures = 0;
    b_probe_wins = 0; b_probe_at = 0.0; b_trips = 0 }

let state t = t.b_state
let trips t = t.b_trips

let trip t ~now_ms =
  t.b_state <- Open;
  t.b_consec_failures <- 0;
  t.b_probe_wins <- 0;
  t.b_probe_at <- now_ms +. t.c.b_open_ms;
  t.b_trips <- t.b_trips + 1

(* A closed or half-open breaker serves; an open one refuses until its
   cooldown elapses, at which point the first [allow] is the probe that
   moves it to half-open. Pure state transition on the simulated clock. *)
let allow t ~now_ms =
  match t.b_state with
  | Closed | Half_open -> true
  | Open ->
    if now_ms >= t.b_probe_at then begin
      t.b_state <- Half_open;
      t.b_probe_wins <- 0;
      true
    end
    else false

let record_success t ~now_ms =
  ignore now_ms;
  match t.b_state with
  | Closed -> t.b_consec_failures <- 0
  | Half_open ->
    t.b_probe_wins <- t.b_probe_wins + 1;
    if t.b_probe_wins >= t.c.b_probe_successes then begin
      t.b_state <- Closed;
      t.b_consec_failures <- 0;
      t.b_probe_wins <- 0
    end
  | Open -> ()  (* success reported for work admitted before the trip *)

let record_failure t ~now_ms =
  match t.b_state with
  | Closed ->
    t.b_consec_failures <- t.b_consec_failures + 1;
    if t.b_consec_failures >= t.c.b_failure_threshold then trip t ~now_ms
  | Half_open ->
    (* a failed probe re-opens immediately: half-open trusts one window *)
    trip t ~now_ms
  | Open -> ()
