(* Wall-clock spans recorded from the benchmark's own files, around its
   calls into each layer. Spans live in memory and are written out once,
   at the end of a traced run. The program's own Dapper_obs.Trace runs on
   the simulated clock, so it cannot time the implementation. *)

let now_ns () = Monotonic_clock.now ()

let enabled = ref false

type t = { id : int; name : string; parent : int; start_ns : int64; end_ns : int64 }

let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

(* [record name f] runs [f] inside a span named [name]; with tracing off
   it is a plain call. *)
let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let end_ns = now_ns () in
        open_ids := List.tl !open_ids;
        finished := { id; name; parent; start_ns; end_ns } :: !finished)
  end

let dur_ns s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

let all () = List.rev !finished

(* The spans whose outermost enclosing span is named one of [roots]. *)
let under roots spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  List.filter (fun s -> List.mem (root s).name roots) spans

(* Durations in ns of every span with this name, in finish order. *)
let durations spans name =
  List.filter_map (fun s -> if s.name = name then Some (dur_ns s) else None) spans

type row = { r_name : string; r_calls : int; r_total_ns : float; r_self_ns : float }

(* Per span name: call count, total time and self time. A span's self
   time is its duration minus the durations of its direct children. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let self = dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      match Hashtbl.find_opt rows s.name with
      | Some r ->
        Hashtbl.replace rows s.name
          { r with r_calls = r.r_calls + 1; r_total_ns = r.r_total_ns +. dur_ns s;
                   r_self_ns = r.r_self_ns +. self }
      | None ->
        order := s.name :: !order;
        Hashtbl.replace rows s.name
          { r_name = s.name; r_calls = 1; r_total_ns = dur_ns s; r_self_ns = self })
    spans;
  List.rev_map (Hashtbl.find rows) !order

let self_ns spans name =
  match List.find_opt (fun r -> r.r_name = name) (self_times spans) with
  | Some r -> r.r_self_ns
  | None -> 0.0

let print_table oc title spans =
  let rows = self_times spans in
  let root = List.fold_left (fun a s -> if s.parent < 0 then a +. dur_ns s else a) 0.0 spans in
  Printf.fprintf oc "%s\n%-22s %8s %12s %12s %7s\n" title "span" "calls" "total_ms" "self_ms" "self%";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-22s %8d %12.3f %12.3f %6.1f%%\n" r.r_name r.r_calls
        (r.r_total_ns /. 1e6) (r.r_self_ns /. 1e6)
        (if root > 0.0 then 100.0 *. r.r_self_ns /. root else 0.0))
    rows

(* JSON lines: one object per span, then one per span name with its call
   count, total and self time. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" s.id
        s.name s.parent s.start_ns s.end_ns)
    (all ());
  List.iter
    (fun r ->
      Printf.fprintf oc "{\"layer\":%S,\"calls\":%d,\"total_ns\":%.0f,\"self_ns\":%.0f}\n"
        r.r_name r.r_calls r.r_total_ns r.r_self_ns)
    (self_times (all ()));
  close_out oc
