type site =
  | Transfer_chunk
  | Page_fetch
  | Source_node
  | Dest_restore
  | Dest_node

type action =
  | Drop
  | Corrupt of int64
  | Delay of float
  | Crash

type spec = {
  fs_drop : float;
  fs_corrupt : float;
  fs_delay : float;
  fs_delay_ns : float;
  fs_crash_source : float;
  fs_fail_restore : float;
  fs_kill_node : float;
}

let calm =
  { fs_drop = 0.0; fs_corrupt = 0.0; fs_delay = 0.0; fs_delay_ns = 0.0;
    fs_crash_source = 0.0; fs_fail_restore = 0.0; fs_kill_node = 0.0 }

let uniform p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.uniform: probability out of [0,1]";
  (* Payload faults (drop/corrupt/delay) at [p] each; node-level crashes
     are rarer in a real fleet than flaky packets, so they fire at a
     third of the payload rate. Each delay adds 5 ms. *)
  { fs_drop = p; fs_corrupt = p; fs_delay = p; fs_delay_ns = 5.0e6;
    fs_crash_source = p /. 3.0; fs_fail_restore = p /. 3.0;
    fs_kill_node = p /. 3.0 }

type t = {
  f_spec : spec;
  f_rng : Rng.t;
  mutable f_injected : int;
}

let make ~seed spec =
  { f_spec = spec;
    f_rng = Rng.create (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L);
    f_injected = 0 }

let injected t = t.f_injected

let fire t action =
  t.f_injected <- t.f_injected + 1;
  Some action

(* One uniform draw per consultation keeps the schedule replayable: a
   given seed produces the same fault sequence for the same sequence of
   [draw] calls, which the pipeline performs in deterministic order. *)
let draw t site =
  let s = t.f_spec in
  let p = Rng.float t.f_rng in
  let payload_fault () =
    if p < s.fs_drop then fire t Drop
    else if p < s.fs_drop +. s.fs_corrupt then fire t (Corrupt (Rng.next t.f_rng))
    else if p < s.fs_drop +. s.fs_corrupt +. s.fs_delay then
      fire t (Delay s.fs_delay_ns)
    else None
  in
  match site with
  | Transfer_chunk | Page_fetch -> payload_fault ()
  | Source_node -> if p < s.fs_crash_source then fire t Crash else None
  | Dest_restore -> if p < s.fs_fail_restore then fire t Crash else None
  | Dest_node -> if p < s.fs_kill_node then fire t Crash else None

(* The offset [salt] picks in a payload of [len > 0] bytes. *)
let corrupt_offset salt len =
  Int64.to_int (Int64.rem (Int64.logand salt Int64.max_int) (Int64.of_int len))

let flip data i = Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x5A))

let corrupt_byte salt data =
  let len = Bytes.length data in
  if len > 0 then flip data (corrupt_offset salt len)

let corrupt_parts salt parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let rec go i = function
    | [] -> []
    | p :: rest when i >= String.length p -> p :: go (i - String.length p) rest
    | p :: rest ->
      let b = Bytes.of_string p in
      flip b i;
      Bytes.unsafe_to_string b :: rest
  in
  if len = 0 then parts else go (corrupt_offset salt len) parts
