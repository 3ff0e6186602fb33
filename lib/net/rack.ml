type t = {
  r_servers_each : int;
  r_busy_until : float array array;  (* per rack, per page server *)
  mutable r_queue_delay_ms : float;
}

let create ~racks ~servers_each =
  if racks <= 0 || servers_each <= 0 then
    invalid_arg "Rack.create: racks and servers_each must be positive";
  { r_servers_each = servers_each;
    r_busy_until = Array.init racks (fun _ -> Array.make servers_each 0.0);
    r_queue_delay_ms = 0.0 }

let queue_delay_ms t = t.r_queue_delay_ms

let rack_of_node ~racks ~node =
  if racks <= 0 then invalid_arg "Rack.rack_of_node: racks must be positive";
  node mod racks

(* Earliest-free page server in the rack, lowest index on ties: the
   same first-minimum scan every engine in this codebase uses, so
   acquisition order is deterministic. *)
let earliest_free t rack =
  let servers = t.r_busy_until.(rack) in
  let best = ref 0 in
  for i = 1 to t.r_servers_each - 1 do
    if servers.(i) < servers.(!best) then best := i
  done;
  !best

let wait_ms t ~rack ~now_ms =
  if rack < 0 || rack >= Array.length t.r_busy_until then
    invalid_arg "Rack.wait_ms: rack out of range";
  Float.max 0.0 (t.r_busy_until.(rack).(earliest_free t rack) -. now_ms)

let acquire_wait t ~rack ~now_ms ~service_ms =
  if rack < 0 || rack >= Array.length t.r_busy_until then
    invalid_arg "Rack.acquire: rack out of range";
  if service_ms < 0.0 then invalid_arg "Rack.acquire: negative service time";
  let servers = t.r_busy_until.(rack) in
  let best = earliest_free t rack in
  let start_ms = Float.max now_ms servers.(best) in
  let finish_ms = start_ms +. service_ms in
  servers.(best) <- finish_ms;
  t.r_queue_delay_ms <- t.r_queue_delay_ms +. (start_ms -. now_ms);
  (finish_ms, start_ms -. now_ms)

let acquire t ~rack ~now_ms ~service_ms =
  fst (acquire_wait t ~rack ~now_ms ~service_ms)
