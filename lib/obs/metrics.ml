type counter = { mutable c_value : int }

type histogram = {
  h_counts : int array;          (* length = Array.length bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 16

let register name m =
  match Hashtbl.find_opt registry name with
  | Some existing ->
    (match (existing, m) with
     | Counter _, Counter _ | Histogram _, Histogram _ -> existing
     | _ -> invalid_arg (Printf.sprintf "Metrics: %s re-registered with another type" name))
  | None ->
    Hashtbl.add registry name m;
    m

let counter name =
  match register name (Counter { c_value = 0 }) with
  | Counter c -> c
  | _ -> assert false

(* Millisecond-oriented upper bucket bounds, strictly increasing:
   migration stages span ~0.01 ms to multi-second transfers. *)
let bounds =
  [| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0; 5000.0 |]

let histogram name =
  match
    register name
      (Histogram
         { h_counts = Array.make (Array.length bounds + 1) 0; h_sum = 0.0; h_count = 0 })
  with
  | Histogram h -> h
  | _ -> assert false

let inc ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let bucket_of v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_of v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let histogram_sum h = h.h_sum
let histogram_count h = h.h_count

let histogram_buckets h =
  List.init (Array.length h.h_counts) (fun i ->
      let bound = if i < Array.length bounds then bounds.(i) else infinity in
      (bound, h.h_counts.(i)))

let find name = Hashtbl.find_opt registry name

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Histogram h ->
        Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
        h.h_sum <- 0.0;
        h.h_count <- 0)
    registry
