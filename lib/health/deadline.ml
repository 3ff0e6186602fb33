module Derr = Dapper_util.Dapper_error

type t = {
  d_alpha : float;
  tbl : (Derr.stage, float) Hashtbl.t;
}

let create ?(alpha = 0.3) () =
  if alpha <= 0.0 || alpha > 1.0 then
    invalid_arg "Deadline.create: alpha outside (0, 1]";
  { d_alpha = alpha; tbl = Hashtbl.create 8 }

let observe t stage ms =
  match Hashtbl.find_opt t.tbl stage with
  | None -> Hashtbl.replace t.tbl stage ms
  | Some prev ->
    Hashtbl.replace t.tbl stage ((t.d_alpha *. ms) +. ((1.0 -. t.d_alpha) *. prev))

let projected t stage = Hashtbl.find_opt t.tbl stage

(* The pause budget is an instruction count (how far the source may
   drain); at the source's speed it is also a time: the blackout the
   operator already agreed to stall the process for. [margin] widens it
   (migration stages beyond the pause legitimately cost more than the
   drain itself). *)
let budget_ms ?(margin = 1.0) ~ops_per_ns ~pause_budget () =
  if ops_per_ns <= 0.0 then invalid_arg "Deadline.budget_ms: ops_per_ns <= 0";
  if margin <= 0.0 then invalid_arg "Deadline.budget_ms: margin <= 0";
  margin *. float_of_int pause_budget /. (ops_per_ns *. 1e6)
