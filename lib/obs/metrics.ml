type counter = { mutable c_value : int }

type metric = Counter of counter

let registry : (string, metric) Hashtbl.t = Hashtbl.create 16

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.add registry name (Counter c);
    c

let inc ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let find name = Hashtbl.find_opt registry name

let reset () = Hashtbl.iter (fun _ (Counter c) -> c.c_value <- 0) registry
