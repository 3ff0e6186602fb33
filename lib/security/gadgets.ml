open Dapper_isa
open Dapper_binary

type counts = {
  g_ret : int;
  g_indirect : int;
  g_total : int;
}

(* Gadgets are at most this many instructions long. *)
let max_len = 5

(* Does a gadget of <= max_len instructions start at [off]?
   Returns the terminator class if so. *)
let gadget_at arch code off =
  let rec go off remaining =
    if remaining = 0 then None
    else
      match Encoding.decode arch code off with
      | None -> None
      | Some (Minstr.Ret, _) -> Some `Ret
      | Some (Minstr.Call_reg _, _) -> Some `Indirect
      | Some ((Minstr.Jmp _ | Minstr.Jz _ | Minstr.Jnz _ | Minstr.Call _ | Minstr.Trap
              | Minstr.Syscall _), _) ->
        None (* direct control flow ends the chain unusable *)
      | Some (_, sz) -> go (off + sz) (remaining - 1)
  in
  go off max_len

let scan (binary : Binary.t) =
  let text =
    match Binary.find_section binary ".text" with
    | Some s -> s.sec_data
    | None -> ""
  in
  let arch = binary.bin_arch in
  let step = Encoding.alignment arch in
  let ret = ref 0 and ind = ref 0 in
  let off = ref 0 in
  while !off < String.length text do
    (match gadget_at arch text !off with
     | Some `Ret -> incr ret
     | Some `Indirect -> incr ind
     | None -> ());
    off := !off + step
  done;
  { g_ret = !ret; g_indirect = !ind; g_total = !ret + !ind }

let reduction_pct ~baseline ~subject =
  if baseline.g_total = 0 then 0.0
  else
    100.0
    *. (float_of_int (baseline.g_total - subject.g_total)
        /. float_of_int baseline.g_total)
