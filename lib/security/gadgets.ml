open Dapper_isa
open Dapper_binary

type counts = { g_total : int }

(* Gadgets are at most this many instructions long. *)
let max_len = 5

(* Does a gadget of <= max_len instructions start at [off]? *)
let gadget_at arch code off =
  let rec go off remaining =
    remaining > 0
    &&
    match Encoding.decode arch code off with
    | None -> false
    | Some ((Minstr.Ret | Minstr.Call_reg _), _) -> true
    | Some ((Minstr.Jmp _ | Minstr.Jz _ | Minstr.Jnz _ | Minstr.Call _ | Minstr.Trap
            | Minstr.Syscall _), _) ->
      false (* direct control flow ends the chain unusable *)
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
  let total = ref 0 in
  let off = ref 0 in
  while !off < String.length text do
    if gadget_at arch text !off then incr total;
    off := !off + step
  done;
  { g_total = !total }

let reduction_pct ~baseline ~subject =
  if baseline.g_total = 0 then 0.0
  else
    100.0
    *. (float_of_int (baseline.g_total - subject.g_total)
        /. float_of_int baseline.g_total)
