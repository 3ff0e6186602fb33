open Dapper_util
open Dapper_isa
open Dapper_binary
open Dapper_criu

let fail fmt = Dapper_error.failf (fun s -> Dapper_error.Unwind_failed s) fmt

type frame = {
  fr_func : Stackmap.func_map;
  fr_ep : Stackmap.eqpoint;
  fr_fp : int64;
  fr_at_call : bool;
  fr_values : (Stackmap.lv_key * string) list;
}

type thread_stack = {
  ts_tid : int;
  ts_frames : frame list;
  ts_arg_regs : int64 list;
  ts_tls : int64;
}

(* A frame or slot outside the dump is a failed unwind. *)
let read_u64 image addr =
  try Images.read_u64 image addr with Images.Image_error msg -> fail "%s" msg

let read_bytes image addr len =
  let b = Bytes.create len in
  (* read in 8-byte chunks through the image accessor *)
  let full = len / 8 in
  for k = 0 to full - 1 do
    Bytes.set_int64_le b (k * 8) (read_u64 image (Int64.add addr (Int64.of_int (k * 8))))
  done;
  if len mod 8 <> 0 then fail "live value size %d not a multiple of 8" len;
  Bytes.to_string b

let extract_values image (ctx : int64 array) fp (ep : Stackmap.eqpoint) =
  List.map
    (fun (lv : Stackmap.live_value) ->
      let bytes =
        match lv.lv_loc with
        | Stackmap.Reg r ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 ctx.(r);
          Bytes.to_string b
        | Stackmap.Frame off -> read_bytes image (Int64.add fp (Int64.of_int off)) lv.lv_size
      in
      (lv.lv_key, bytes))
    ep.ep_live

(* Find the equivalence point a paused thread sits at: either a trap
   resume address (entry/backedge checker) or, for a rolled-back thread,
   the call instruction itself. *)
let innermost_ep ix (fm : Stackmap.func_map) pc =
  match Stackmap_index.eqpoint_by_resume ix fm.fm_name pc with
  | Some ep -> (ep, false)
  | None ->
    (match Stackmap_index.eqpoint_at_addr ix fm.fm_name pc with
     | Some ({ ep_kind = Stackmap.Call_site _; _ } as ep) -> (ep, true)
     | Some _ | None -> fail "thread paused at 0x%Lx: no equivalence point" pc)

let unwind_exn image ix ~(anchors : Binary.anchors) (tc : Images.thread_core) =
  let arch = tc.tc_arch in
  let ctx = Array.copy tc.tc_regs in
  let fm0 =
    match Stackmap_index.func_of_addr ix tc.tc_pc with
    | Some fm -> fm
    | None -> fail "thread %d pc 0x%Lx not in any function" tc.tc_tid tc.tc_pc
  in
  let ep0, at_call = innermost_ep ix fm0 tc.tc_pc in
  let is_bottom ret =
    Int64.equal ret anchors.a_exit_stub || Int64.equal ret anchors.a_thread_exit_stub
  in
  let rec walk fm (ep : Stackmap.eqpoint) fp at_call innermost acc =
    let values = extract_values image ctx fp ep in
    let frame = { fr_func = fm; fr_ep = ep; fr_fp = fp; fr_at_call = at_call;
                  fr_values = values } in
    let acc = frame :: acc in
    (* Return address: aarch64 leaf frames keep it in the link register
       (only possible for the innermost, trapped frame). *)
    let ret_addr =
      if arch = Arch.Aarch64 && fm.fm_leaf && innermost && not at_call then ctx.(30)
      else read_u64 image (Int64.add fp 8L)
    in
    (* Recover the caller's callee-saved register context from this
       frame's save area, and the caller's frame pointer. *)
    List.iter
      (fun (r, off) -> ctx.(r) <- read_u64 image (Int64.add fp (Int64.of_int off)))
      fm.fm_saved;
    let caller_fp = read_u64 image fp in
    if is_bottom ret_addr then List.rev acc
    else
      match Stackmap_index.func_of_addr ix ret_addr with
      | None -> fail "return address 0x%Lx not in any function" ret_addr
      | Some fm' ->
        (match Stackmap_index.eqpoint_by_resume ix fm'.fm_name ret_addr with
         | Some ({ ep_kind = Stackmap.Call_site _; _ } as ep') ->
           walk fm' ep' caller_fp false false acc
         | Some _ | None ->
           fail "return address 0x%Lx is not a call-site equivalence point" ret_addr)
  in
  let fp0 = ctx.(Arch.fp arch) in
  let frames = walk fm0 ep0 fp0 at_call true [] in
  let arg_regs =
    if at_call then
      match ep0.ep_kind with
      | Stackmap.Call_site { cs_nargs } ->
        List.filteri (fun idx _ -> idx < cs_nargs)
          (List.map (fun r -> tc.tc_regs.(r)) (Arch.arg_regs arch))
      | Stackmap.Entry | Stackmap.Backedge -> []
    else []
  in
  (* [walk] reverses its accumulator before returning, so [frames] is
     already innermost first. *)
  { ts_tid = tc.tc_tid; ts_frames = frames; ts_arg_regs = arg_regs;
    ts_tls = tc.tc_tls }

let unwind_all image ix ~anchors =
  Dapper_error.protect (fun () ->
      List.map (unwind_exn image ix ~anchors) image.Images.is_cores)
