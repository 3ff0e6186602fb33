type t = {
  l_name : string;
  l_bandwidth_mbps : float;
  l_latency_us : float;
}

let infiniband = { l_name = "infiniband"; l_bandwidth_mbps = 1200.0; l_latency_us = 30.0 }

let transfer_ns l bytes =
  (l.l_latency_us *. 1e3) +. (float_of_int bytes /. (l.l_bandwidth_mbps *. 1e6) *. 1e9)

let page_fetch_ns l bytes =
  (* request + response round trip, latency-dominated for single pages *)
  (2.0 *. l.l_latency_us *. 1e3)
  +. (float_of_int bytes /. (l.l_bandwidth_mbps *. 1e6) *. 1e9)
