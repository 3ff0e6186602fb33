open Dapper_util

type phase = Begin | End

type event = {
  ev_phase : phase;
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : float;
  ev_args : (string * string) list;
}

(* One global sink. The clock is the *simulated* clock: it only moves
   when instrumentation charges modeled nanoseconds ([advance]) or a
   span closes with an explicit modeled duration ([leave ~dur_ns]), so
   a trace is a pure function of the work performed — two replays of
   the same seeded run serialize byte-identically. *)
type state = {
  mutable enabled : bool;
  mutable now_ns : float;
  mutable events : event list; (* newest first *)
  mutable stack : (string * string * float) list; (* name, cat, t0 *)
}

let st = { enabled = false; now_ns = 0.0; events = []; stack = [] }

let enabled () = st.enabled

let reset () =
  st.now_ns <- 0.0;
  st.events <- [];
  st.stack <- []

let start () =
  reset ();
  st.enabled <- true

let stop () = st.enabled <- false

let push phase name cat args =
  st.events <-
    { ev_phase = phase; ev_name = name; ev_cat = cat; ev_ts_ns = st.now_ns;
      ev_args = args }
    :: st.events

let enter ?(cat = "dapper") ?(args = []) name =
  if st.enabled then begin
    st.stack <- (name, cat, st.now_ns) :: st.stack;
    push Begin name cat args
  end

let advance ns =
  if st.enabled && ns > 0.0 then st.now_ns <- st.now_ns +. ns

let leave ?dur_ns ?(args = []) () =
  if st.enabled then
    match st.stack with
    | [] -> invalid_arg "Trace.leave: no open span"
    | (name, cat, t0) :: rest ->
      st.stack <- rest;
      (* An explicit duration is the span's modeled cost; children may
         already have advanced the clock past it (e.g. demand paging
         inside a fixed-cost lazy restore), so the clock never goes
         backwards. *)
      (match dur_ns with
       | Some d when t0 +. d > st.now_ns -> st.now_ns <- t0 +. d
       | _ -> ());
      push End name cat args

let leaf ?cat ?args name ~dur_ns =
  if st.enabled then begin
    enter ?cat ?args name;
    advance dur_ns;
    leave ()
  end

(* The one way to open a span around code. Sites that only know the
   span's modeled duration or closing args at the end hand them to the
   closer, and the span closes exactly once on every exit path. On an
   exception the span closes with an "exception" arg before re-raising,
   so the stack stays well-formed and the fault surfaces at the raise
   site. *)
type closer = {
  mutable cl_dur_ns : float option;
  mutable cl_args : (string * string) list; (* newest first *)
}

let set_dur cl ns = cl.cl_dur_ns <- Some ns
let add_arg cl k v = cl.cl_args <- (k, v) :: cl.cl_args

let with_span ?cat ?args name f =
  let cl = { cl_dur_ns = None; cl_args = [] } in
  if not st.enabled then f cl
  else begin
    enter ?cat ?args name;
    match f cl with
    | v ->
      leave ?dur_ns:cl.cl_dur_ns ~args:(List.rev cl.cl_args) ();
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      leave ?dur_ns:cl.cl_dur_ns
        ~args:(List.rev (("exception", Printexc.to_string exn) :: cl.cl_args))
        ();
      Printexc.raise_with_backtrace exn bt
  end

let events () = List.rev st.events

let phase_char = function Begin -> "B" | End -> "E"

(* ----- Chrome trace_event export -----
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   Duration (B/E) events on one pid/tid; timestamps in microseconds. *)

let to_chrome_json () =
  let ev e =
    let base =
      [ ("name", Json.String e.ev_name);
        ("cat", Json.String e.ev_cat);
        ("ph", Json.String (phase_char e.ev_phase));
        ("ts", Json.Float (e.ev_ts_ns /. 1e3));
        ("pid", Json.Int 1L);
        ("tid", Json.Int 1L) ]
    in
    let args =
      match e.ev_args with
      | [] -> []
      | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)) ]
    in
    Json.Obj (base @ args)
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.map ev (events ())));
      ("displayTimeUnit", Json.String "ms") ]

let export ~file =
  let oc = open_out file in
  output_string oc (Json.to_string (to_chrome_json ()));
  output_char oc '\n';
  close_out oc

(* ----- aggregation ----- *)

(* Fold the event stream with a span stack, calling [f name cat total
   self] per closed span (total and self in ns). *)
let fold_spans f acc0 =
  let acc = ref acc0 in
  let stack = ref [] in
  List.iter
    (fun e ->
      match e.ev_phase with
      | Begin -> stack := (e.ev_name, e.ev_cat, e.ev_ts_ns, ref 0.0) :: !stack
      | End ->
        (match !stack with
         | (name, cat, t0, child_ns) :: rest ->
           let total = e.ev_ts_ns -. t0 in
           (match rest with
            | (_, _, _, parent_child) :: _ -> parent_child := !parent_child +. total
            | [] -> ());
           stack := rest;
           acc := f !acc name cat total (total -. !child_ns)
         | [] -> ()))
    (events ());
  !acc

(* Plain-text flame summary: per span name, invocation count, total and
   self time, sorted by total descending. *)
let flame_summary () =
  let tbl : (string * string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  fold_spans
    (fun () name cat total self ->
      let n, t, s =
        match Hashtbl.find_opt tbl (name, cat) with
        | Some r -> r
        | None ->
          let r = (ref 0, ref 0.0, ref 0.0) in
          Hashtbl.add tbl (name, cat) r;
          r
      in
      incr n;
      t := !t +. total;
      s := !s +. self)
    ();
  let rows =
    Hashtbl.fold
      (fun (name, cat) (n, t, s) acc -> (name, cat, !n, !t /. 1e6, !s /. 1e6) :: acc)
      tbl []
    |> List.sort (fun (an, _, _, at, _) (bn, _, _, bt, _) ->
           match compare bt at with 0 -> compare an bn | c -> c)
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %-10s %8s %12s %12s\n" "span" "cat" "count" "total-ms"
       "self-ms");
  List.iter
    (fun (name, cat, n, total, self) ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %-10s %8d %12.3f %12.3f\n" name cat n total self))
    rows;
  Buffer.contents b
