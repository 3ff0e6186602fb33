open Dapper_util

type t = {
  a_rng : Rng.t;
  a_states : (float * float) array;  (* (rate_per_ms, mean_hold_ms) *)
  mutable a_state : int;
  mutable a_now : float;
  mutable a_switch_at : float;
}

(* Unit-mean exponential via inverse CDF. [Rng.float] is in [0, 1), so
   [1 - u] is in (0, 1] and the log is finite. *)
let expo rng = -.Float.log (1.0 -. Rng.float rng)

let mmpp ~seed states =
  if Array.length states = 0 then invalid_arg "Arrival.mmpp: no states";
  Array.iter
    (fun (rate, hold) ->
      if rate <= 0.0 || hold <= 0.0 then
        invalid_arg "Arrival.mmpp: rates and holds must be positive")
    states;
  let rng = Rng.create seed in
  let _, hold0 = states.(0) in
  let switch_at =
    if Array.length states = 1 then infinity else expo rng *. hold0
  in
  { a_rng = rng; a_states = states; a_state = 0; a_now = 0.0;
    a_switch_at = switch_at }

let poisson ~seed ~rate_per_ms =
  if rate_per_ms <= 0.0 then invalid_arg "Arrival.poisson: rate must be positive";
  (* the hold time is irrelevant for a single state; 1.0 keeps it valid *)
  mmpp ~seed [| (rate_per_ms, 1.0) |]

let rec next t =
  let rate, _ = t.a_states.(t.a_state) in
  let dt = expo t.a_rng /. rate in
  if t.a_now +. dt <= t.a_switch_at then begin
    t.a_now <- t.a_now +. dt;
    t.a_now
  end
  else begin
    (* jump to the state boundary and redraw there: both the modulating
       chain and the arrival process are memoryless, so discarding the
       partial inter-arrival is exact, not an approximation *)
    t.a_now <- t.a_switch_at;
    t.a_state <- (t.a_state + 1) mod Array.length t.a_states;
    let _, hold = t.a_states.(t.a_state) in
    t.a_switch_at <- t.a_now +. (expo t.a_rng *. hold);
    next t
  end
