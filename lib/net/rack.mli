(** Per-rack page-server pools: the source-side capacity limit on
    concurrent migrations.

    A live migration streams pages from a page server in the
    destination's rack. Each rack runs a small fixed pool of servers;
    a migration acquires the earliest-free one and occupies it for the
    transfer's duration, so racks under migration pressure queue — the
    returned completion time includes any wait. This models the
    paper's observation that migration cost is dominated by state
    transfer: at fleet scale the transfer capacity, not the CPU, is
    the contended resource.

    Acquisition is deterministic (earliest-free server, lowest index
    on ties), so simulated fleets replay identically. *)

type t

(** [create ~racks ~servers_each] is a fleet of [racks] pools, each
    with [servers_each] page servers, all free at time 0. Raises
    [Invalid_argument] unless both are positive. *)
val create : racks:int -> servers_each:int -> t


(** Static node-to-rack striping: [node mod racks]. *)
val rack_of_node : racks:int -> node:int -> int

(** [acquire t ~rack ~now_ms ~service_ms] books the earliest-free page
    server in [rack] for a transfer of [service_ms], starting no
    earlier than [now_ms], and returns the completion time
    [max now_ms free_at +. service_ms]. *)
val acquire : t -> rack:int -> now_ms:float -> service_ms:float -> float

(** Like {!acquire}, also returning the time the transfer spent queued
    behind busy servers ([start -. now_ms]) — the live-traffic plane
    charges this wait to the faulting request. *)
val acquire_wait :
  t -> rack:int -> now_ms:float -> service_ms:float -> float * float

(** How long a transfer starting at [now_ms] would wait for a page
    server in [rack] — a placement estimate; books nothing. *)
val wait_ms : t -> rack:int -> now_ms:float -> float

(** Total time transfers spent queued behind busy page servers. *)
val queue_delay_ms : t -> float
