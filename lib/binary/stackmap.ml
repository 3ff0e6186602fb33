type loc = Reg of int | Frame of int
type lv_key = Slot of int | Temp of int
type lv_ty = Lv_i64 | Lv_f64 | Lv_ptr

type live_value = {
  lv_key : lv_key;
  lv_name : string;
  lv_ty : lv_ty;
  lv_size : int;
  lv_loc : loc;
}

type ep_kind =
  | Entry
  | Call_site of { cs_nargs : int }
  | Backedge

type eqpoint = {
  ep_id : int;
  ep_kind : ep_kind;
  ep_addr : int64;
  ep_resume : int64;
  ep_live : live_value list;
}

type func_map = {
  fm_name : string;
  fm_addr : int64;
  fm_code_size : int;
  fm_frame_size : int;
  fm_saved : (int * int) list;
  fm_promoted : (int * int) list;
  fm_leaf : bool;
  fm_eqpoints : eqpoint list;
}

let find_func maps name = List.find_opt (fun fm -> fm.fm_name = name) maps

let func_of_addr maps a =
  List.find_opt
    (fun fm ->
      Int64.compare a fm.fm_addr >= 0
      && Int64.compare a (Int64.add fm.fm_addr (Int64.of_int fm.fm_code_size)) < 0)
    maps

let eqpoint_by_resume fm a =
  List.find_opt (fun ep -> Int64.equal ep.ep_resume a) fm.fm_eqpoints

let eqpoint_at_addr fm a =
  List.find_opt (fun ep -> Int64.equal ep.ep_addr a) fm.fm_eqpoints

let eqpoint_by_id fm id = List.find_opt (fun ep -> ep.ep_id = id) fm.fm_eqpoints

let entry_eqpoint fm = List.find_opt (fun ep -> ep.ep_kind = Entry) fm.fm_eqpoints

let live_value ep key = List.find_opt (fun lv -> lv.lv_key = key) ep.ep_live

let live_value_named ep name = List.find_opt (fun lv -> lv.lv_name = name) ep.ep_live
