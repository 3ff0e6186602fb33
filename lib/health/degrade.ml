type rung = Full | Hybrid_only | Precopy_only | Postponed

let rung_name = function
  | Full -> "full"
  | Hybrid_only -> "hybrid"
  | Precopy_only -> "precopy"
  | Postponed -> "postponed"

let all_rungs = [ Full; Hybrid_only; Precopy_only; Postponed ]

let next = function
  | Full -> Some Hybrid_only
  | Hybrid_only -> Some Precopy_only
  | Precopy_only -> Some Postponed
  | Postponed -> None

(* The mechanism each rung is allowed: Full lets the budget picker
   choose freely; the hybrid rung pins the minimum-blackout mechanism;
   the pre-copy rung drops every post-restore dependence on the source
   link (no lazy tail to serve over a breaker-open transport); the last
   rung does not migrate now at all. *)
let mechanism = function
  | Full -> None
  | Hybrid_only -> Some Dapper_traffic.Budget.Hybrid
  | Precopy_only -> Some Dapper_traffic.Budget.Precopy
  | Postponed -> None

(* Exponential backoff for postponed evictions, capped so a repeatedly
   postponed job re-attempts at a bounded cadence rather than never. *)
let postpone_backoff_ms ?(base_ms = 500.0) ?(cap_ms = 8_000.0) ~attempt () =
  if base_ms <= 0.0 then invalid_arg "Degrade.postpone_backoff_ms: base <= 0";
  if cap_ms < base_ms then invalid_arg "Degrade.postpone_backoff_ms: cap < base";
  if attempt < 0 then invalid_arg "Degrade.postpone_backoff_ms: attempt < 0";
  Float.min cap_ms (base_ms *. (2.0 ** float_of_int attempt))
