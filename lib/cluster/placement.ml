type t = First_fit | Energy_aware | Slo_aware

let name = function
  | First_fit -> "first-fit"
  | Energy_aware -> "energy-aware"
  | Slo_aware -> "slo-aware"

(* All selection rules keep the first candidate among ties (strict
   comparisons), so candidate order — class order by contract — is the
   deterministic tie-break. *)
let best_by better = function
  | [] -> None
  | c :: cs ->
    Some (List.fold_left (fun best c -> if better c best then c else best) c cs)

type dest = {
  dc_index : int;
  dc_lowest_slot : int;
  dc_ops_per_ns : float;
  dc_core_w : float;
  dc_est_ms : float;
}

(* Active watts divided by speed: joules charged per unit of work — the
   quantity energy-aware placement minimizes. *)
let watts_per_speed d = d.dc_core_w /. d.dc_ops_per_ns

let choose_dest policy ?deadline_ms candidates =
  match policy with
  | First_fit ->
    best_by (fun c best -> c.dc_lowest_slot < best.dc_lowest_slot) candidates
  | Energy_aware ->
    best_by (fun c best -> watts_per_speed c < watts_per_speed best) candidates
  | Slo_aware -> (
    let meets =
      match deadline_ms with
      | None -> candidates
      | Some dl -> List.filter (fun c -> c.dc_est_ms <= dl) candidates
    in
    match meets with
    | [] -> best_by (fun c best -> c.dc_est_ms < best.dc_est_ms) candidates
    | _ -> best_by (fun c best -> watts_per_speed c < watts_per_speed best) meets)
