type 'a t = {
  lo : int64 array;
  hi : int64 array;
  payload : 'a array;
}

let of_list intervals =
  let a = Array.of_list intervals in
  Array.sort (fun (l1, _, _) (l2, _, _) -> Int64.compare l1 l2) a;
  { lo = Array.map (fun (l, _, _) -> l) a;
    hi = Array.map (fun (_, h, _) -> h) a;
    payload = Array.map (fun (_, _, p) -> p) a }

let disjoint t =
  let n = Array.length t.lo in
  let rec go k = k >= n || (Int64.compare t.hi.(k - 1) t.lo.(k) <= 0 && go (k + 1)) in
  go 1

(* Greatest index whose [lo] is <= [v], or -1. *)
let rank t v =
  let lo = t.lo in
  let l = ref 0 and r = ref (Array.length lo - 1) and best = ref (-1) in
  while !l <= !r do
    let m = (!l + !r) / 2 in
    if Int64.compare lo.(m) v <= 0 then begin
      best := m;
      l := m + 1
    end
    else r := m - 1
  done;
  !best

let find_interval t v =
  let k = rank t v in
  if k >= 0 && Int64.compare v t.hi.(k) < 0 then Some (t.lo.(k), t.hi.(k), t.payload.(k))
  else None

let find t v =
  let k = rank t v in
  if k >= 0 && Int64.compare v t.hi.(k) < 0 then Some t.payload.(k) else None

