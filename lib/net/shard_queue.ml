type 'a t = {
  q_shards : 'a Queue.t array;
  mutable q_len : int;
  mutable q_steals : int;
}

let create ~shards items =
  if shards <= 0 then invalid_arg "Shard_queue.create: shards must be positive";
  let t =
    { q_shards = Array.init shards (fun _ -> Queue.create ());
      q_len = 0;
      q_steals = 0 }
  in
  List.iteri (fun i x -> Queue.push x t.q_shards.(i mod shards)) items;
  t.q_len <- List.length items;
  t

let steals t = t.q_steals
let is_empty t = t.q_len = 0

let check_shard t shard =
  if shard < 0 || shard >= Array.length t.q_shards then
    invalid_arg "Shard_queue: shard out of range"

let push t ~shard x =
  check_shard t shard;
  Queue.push x t.q_shards.(shard);
  t.q_len <- t.q_len + 1

(* Pop from the home shard; when it is dry, steal from the next
   non-empty shard scanning [shard+1, shard+2, ...] cyclically — a
   fixed scan order, so identical runs steal identically. *)
let pop t ~shard =
  check_shard t shard;
  let n = Array.length t.q_shards in
  let rec scan i =
    if i = n then None
    else
      let s = (shard + i) mod n in
      match Queue.take_opt t.q_shards.(s) with
      | Some x ->
        t.q_len <- t.q_len - 1;
        if i > 0 then t.q_steals <- t.q_steals + 1;
        Some x
      | None -> scan (i + 1)
  in
  scan 0

(* Same scan as [pop], removing nothing: what [pop ~shard] would return. *)
let peek t ~shard =
  check_shard t shard;
  let n = Array.length t.q_shards in
  let rec scan i =
    if i = n then None
    else
      match Queue.peek_opt t.q_shards.((shard + i) mod n) with
      | Some x -> Some x
      | None -> scan (i + 1)
  in
  scan 0
