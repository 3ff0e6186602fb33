(** Network links between nodes (scp and page-server traffic). *)

type t = {
  l_name : string;
  l_bandwidth_mbps : float;  (** payload megabytes per second *)
  l_latency_us : float;      (** per-transfer setup latency *)
}

val infiniband : t

(** Nanoseconds to transfer [bytes] in one stream. *)
val transfer_ns : t -> int -> float

(** Nanoseconds to fetch a single page via RPC (latency-dominated). *)
val page_fetch_ns : t -> int -> float
