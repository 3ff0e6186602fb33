(** A sharded FIFO job queue with deterministic work-stealing.

    One global queue becomes a serialization point in a fleet engine
    dispatching from thousands of slots; sharding lets each dispatcher
    work against its home shard and only look sideways when that shard
    runs dry. [create] deals the initial items round-robin across
    shards, so global FIFO order is preserved per shard and the
    interleaving across shards is the classic round-robin hand-out.

    Everything is deterministic: a dry home shard steals from the
    first non-empty shard scanning [shard+1, shard+2, ...] cyclically,
    so two runs of the same configuration pop identical sequences. *)

type 'a t

(** [create ~shards items] deals [items] round-robin over [shards]
    queues (item [i] lands in shard [i mod shards]). Raises
    [Invalid_argument] if [shards <= 0]. *)
val create : shards:int -> 'a list -> 'a t

(** No items queued in any shard. *)
val is_empty : 'a t -> bool

(** Enqueue to the back of one shard. *)
val push : 'a t -> shard:int -> 'a -> unit

(** [pop t ~shard] takes the front of [shard], stealing from the next
    non-empty shard in cyclic scan order when it is empty; [None] only
    when every shard is dry. *)
val pop : 'a t -> shard:int -> 'a option

(** What [pop t ~shard] would return, removing nothing — lets a
    dispatcher inspect the next job before committing to a placement. *)
val peek : 'a t -> shard:int -> 'a option

(** Number of pops served by a steal rather than the home shard. *)
val steals : 'a t -> int
