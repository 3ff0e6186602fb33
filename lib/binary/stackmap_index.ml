type t = { maps : Stackmap.func_map list; mutable lookups : int }

let handle maps = { maps; lookups = 0 }
let lookups t = t.lookups
let count t = t.lookups <- t.lookups + 1

let find_func t name =
  count t;
  Stackmap.find_func t.maps name

let func_of_addr t a =
  count t;
  Stackmap.func_of_addr t.maps a

let in_func t name f = Option.bind (find_func t name) f

let eqpoint_by_id t name id = in_func t name (fun fm -> Stackmap.eqpoint_by_id fm id)

let eqpoint_by_resume t name a =
  in_func t name (fun fm -> Stackmap.eqpoint_by_resume fm a)

let eqpoint_at_addr t name a = in_func t name (fun fm -> Stackmap.eqpoint_at_addr fm a)

let live_value t name ep_id key =
  in_func t name (fun fm ->
      count t;
      Option.bind (Stackmap.eqpoint_by_id fm ep_id) (fun ep -> Stackmap.live_value ep key))
