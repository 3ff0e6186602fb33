type func_entry = {
  fe_fm : Stackmap.func_map;
  fe_end : int64;
  fe_ep_by_id : (int, Stackmap.eqpoint) Hashtbl.t;
  fe_ep_by_resume : (int64, Stackmap.eqpoint) Hashtbl.t;
  fe_ep_at_addr : (int64, Stackmap.eqpoint) Hashtbl.t;
  fe_entry_ep : Stackmap.eqpoint option;
  fe_live : (int * Stackmap.lv_key, Stackmap.live_value) Hashtbl.t;
  fe_live_named : (int * string, Stackmap.live_value) Hashtbl.t;
}

type tables = {
  ix_by_name : (string, func_entry) Hashtbl.t;
  ix_by_addr : func_entry array; (* sorted by fm_addr *)
}

type t = { tables : tables; mutable lookups : int }

let handle tables = { tables; lookups = 0 }
let lookups t = t.lookups
let count t = t.lookups <- t.lookups + 1

(* All lookups match the first-hit semantics of the linear scans they
   replace, so duplicate names/addresses (which well-formed stack maps
   never contain) resolve identically: only the first binding wins. *)
let add_first tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v

let entry_of_fm (fm : Stackmap.func_map) =
  let neps = List.length fm.fm_eqpoints in
  let fe_ep_by_id = Hashtbl.create (neps * 2) in
  let fe_ep_by_resume = Hashtbl.create (neps * 2) in
  let fe_ep_at_addr = Hashtbl.create (neps * 2) in
  let fe_live = Hashtbl.create 16 in
  let fe_live_named = Hashtbl.create 16 in
  let entry = ref None in
  List.iter
    (fun (ep : Stackmap.eqpoint) ->
      add_first fe_ep_by_id ep.ep_id ep;
      add_first fe_ep_by_resume ep.ep_resume ep;
      add_first fe_ep_at_addr ep.ep_addr ep;
      if ep.ep_kind = Stackmap.Entry && !entry = None then entry := Some ep;
      List.iter
        (fun (lv : Stackmap.live_value) ->
          add_first fe_live (ep.ep_id, lv.lv_key) lv;
          add_first fe_live_named (ep.ep_id, lv.lv_name) lv)
        ep.ep_live)
    fm.fm_eqpoints;
  { fe_fm = fm;
    fe_end = Int64.add fm.fm_addr (Int64.of_int fm.fm_code_size);
    fe_ep_by_id; fe_ep_by_resume; fe_ep_at_addr; fe_entry_ep = !entry;
    fe_live; fe_live_named }

let build maps =
  let entries = List.map entry_of_fm maps in
  let ix_by_name = Hashtbl.create (List.length entries * 2) in
  List.iter (fun fe -> add_first ix_by_name fe.fe_fm.Stackmap.fm_name fe) entries;
  let ix_by_addr = Array.of_list entries in
  Array.sort
    (fun a b -> Int64.compare a.fe_fm.Stackmap.fm_addr b.fe_fm.Stackmap.fm_addr)
    ix_by_addr;
  { ix_by_name; ix_by_addr }

let entry t name =
  count t;
  Hashtbl.find_opt t.tables.ix_by_name name

let find_func t name =
  match entry t name with
  | Some fe -> Some fe.fe_fm
  | None -> None

let entry_of_addr t a =
  count t;
  let arr = t.tables.ix_by_addr in
  let l = ref 0 and r = ref (Array.length arr - 1) and best = ref (-1) in
  while !l <= !r do
    let m = (!l + !r) / 2 in
    if Int64.compare arr.(m).fe_fm.Stackmap.fm_addr a <= 0 then begin
      best := m;
      l := m + 1
    end
    else r := m - 1
  done;
  if !best >= 0 && Int64.compare a arr.(!best).fe_end < 0 then Some arr.(!best)
  else None

let func_of_addr t a =
  match entry_of_addr t a with
  | Some fe -> Some fe.fe_fm
  | None -> None

let in_func f t name =
  match entry t name with
  | Some fe -> f fe
  | None -> None

let eqpoint_by_id t name id =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_by_id id) t name

let eqpoint_by_resume t name a =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_by_resume a) t name

let eqpoint_at_addr t name a =
  in_func (fun fe -> Hashtbl.find_opt fe.fe_ep_at_addr a) t name

let entry_eqpoint t name = in_func (fun fe -> fe.fe_entry_ep) t name

let live_value t name ep_id key =
  in_func (fun fe -> count t; Hashtbl.find_opt fe.fe_live (ep_id, key)) t name

let live_value_named t name ep_id lv_name =
  in_func
    (fun fe -> count t; Hashtbl.find_opt fe.fe_live_named (ep_id, lv_name))
    t name
