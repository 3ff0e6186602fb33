type t = {
  k_rel_err : float;
  k_log_gamma : float;
  k_gamma : float;
  k_buckets : (int, int ref) Hashtbl.t;
  mutable k_zero : int;
  mutable k_count : int;
  mutable k_min : float;
  mutable k_max : float;
}

(* Values below this fold into the exact zero bucket: latencies are
   milliseconds, so a nanosecond-scale floor loses nothing and keeps
   bucket indexes bounded. *)
let zero_floor = 1e-9

let create ?(rel_err = 0.01) () =
  if not (rel_err > 0.0 && rel_err < 1.0) then
    invalid_arg "Sketch.create: rel_err outside (0, 1)";
  let gamma = (1.0 +. rel_err) /. (1.0 -. rel_err) in
  { k_rel_err = rel_err;
    k_gamma = gamma;
    k_log_gamma = Float.log gamma;
    k_buckets = Hashtbl.create 128;
    k_zero = 0;
    k_count = 0;
    k_min = nan;
    k_max = nan }

let rel_err t = t.k_rel_err
let count t = t.k_count
let zero_count t = t.k_zero

(* Bucket k holds (gamma^(k-1), gamma^k]: ceil of the log-gamma index. *)
let key t v = int_of_float (Float.ceil (Float.log v /. t.k_log_gamma))

let add t v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg "Sketch.add: negative or non-finite value";
  if t.k_count = 0 then begin
    t.k_min <- v;
    t.k_max <- v
  end
  else begin
    if v < t.k_min then t.k_min <- v;
    if v > t.k_max then t.k_max <- v
  end;
  t.k_count <- t.k_count + 1;
  if v < zero_floor then t.k_zero <- t.k_zero + 1
  else
    let k = key t v in
    match Hashtbl.find_opt t.k_buckets k with
    | Some r -> incr r
    | None -> Hashtbl.add t.k_buckets k (ref 1)

let buckets t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.k_buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Midpoint of bucket k in the relative-error metric: 2*gamma^k /
   (gamma + 1), within rel_err of every value the bucket holds. *)
let bucket_value t k =
  2.0 *. (t.k_gamma ** float_of_int k) /. (t.k_gamma +. 1.0)

let quantile_opt t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.k_count = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.k_count))) in
    if rank <= t.k_zero then Some 0.0
    else begin
      let remaining = ref (rank - t.k_zero) in
      let result = ref t.k_max in
      (try
         List.iter
           (fun (k, c) ->
             remaining := !remaining - c;
             if !remaining <= 0 then begin
               result := bucket_value t k;
               raise Exit
             end)
           (buckets t)
       with Exit -> ());
      Some (Float.min t.k_max (Float.max t.k_min !result))
    end
  end

let quantile t q =
  match quantile_opt t q with
  | Some v -> v
  | None -> invalid_arg "Sketch.quantile: empty sketch (use quantile_opt)"

let merge a b =
  if a.k_rel_err <> b.k_rel_err then
    invalid_arg "Sketch.merge: mismatched rel_err";
  let t = create ~rel_err:a.k_rel_err () in
  let blend src =
    Hashtbl.iter
      (fun k r ->
        match Hashtbl.find_opt t.k_buckets k with
        | Some dst -> dst := !dst + !r
        | None -> Hashtbl.add t.k_buckets k (ref !r))
      src.k_buckets;
    t.k_zero <- t.k_zero + src.k_zero;
    if src.k_count > 0 then begin
      if t.k_count = 0 then begin
        t.k_min <- src.k_min;
        t.k_max <- src.k_max
      end
      else begin
        if src.k_min < t.k_min then t.k_min <- src.k_min;
        if src.k_max > t.k_max then t.k_max <- src.k_max
      end;
      t.k_count <- t.k_count + src.k_count
    end
  in
  blend a;
  blend b;
  t
