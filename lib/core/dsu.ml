open Dapper_util
open Dapper_isa
open Dapper_machine
open Dapper_binary

let changed_functions ~(old_bin : Binary.t) ~(new_bin : Binary.t) =
  (* Index the new binary once instead of a linear find_func per old
     function (O(n^2) over the program's function count). *)
  let ix = Binary.index new_bin in
  List.filter_map
    (fun (fm : Stackmap.func_map) ->
      match Stackmap_index.find_func ix fm.fm_name with
      | None -> Some fm.fm_name (* removed function counts as changed *)
      | Some fm' ->
        if
          fm.fm_code_size <> fm'.fm_code_size
          || not (Int64.equal fm.fm_addr fm'.fm_addr)
          || Binary.code_bytes old_bin fm.fm_addr fm.fm_code_size
             <> Binary.code_bytes new_bin fm'.fm_addr fm'.fm_code_size
        then Some fm.fm_name
        else None)
    old_bin.bin_stackmaps

(* Symbols must not move: the process's data/heap may hold code and data
   pointers that only stay valid under the unified layout. *)
let check_layout ~(old_bin : Binary.t) ~(new_bin : Binary.t) =
  let rec go = function
    | [] -> Ok ()
    | (s : Binary.symbol) :: rest ->
      (match Binary.find_symbol new_bin s.sym_name with
       | Some s' when Int64.equal s.sym_addr s'.sym_addr -> go rest
       | Some s' ->
         Error
           (Dapper_error.Layout_incompatible
              (Printf.sprintf "%s moved from 0x%Lx to 0x%Lx" s.sym_name s.sym_addr
                 s'.sym_addr))
       | None -> Error (Dapper_error.Layout_incompatible (s.sym_name ^ " disappeared")))
  in
  go old_bin.bin_symbols

(* A changed function on some stack blocks the update, with one
   exception (the classic function-entry update point): the innermost
   frame parked at its ENTRY equivalence point may transfer into the new
   version's entry, provided both versions record the same live-value
   keys there — the rewriter then carries the arguments across and the
   thread re-executes the new body. *)
let entry_transferable ~(new_bin : Binary.t) (fr : Unwind.frame) =
  fr.fr_ep.Stackmap.ep_kind = Stackmap.Entry
  &&
  let ix = Binary.index new_bin in
  match Stackmap_index.find_func ix fr.fr_func.Stackmap.fm_name with
  | None -> false
  | Some fm' ->
    (match Stackmap_index.eqpoint_by_id ix fm'.fm_name fr.fr_ep.ep_id with
     | None -> false
     | Some ep' ->
       let keys ep =
         List.map (fun (lv : Stackmap.live_value) -> lv.Stackmap.lv_key) ep.Stackmap.ep_live
         |> List.sort compare
       in
       keys fr.fr_ep = keys ep')

let check_quiescent_outside ~new_bin changed stacks =
  let rec scan = function
    | [] -> Ok ()
    | (ts : Unwind.thread_stack) :: rest ->
      let frames = ts.Unwind.ts_frames in
      let offending =
        List.find_opt
          (fun (fr : Unwind.frame) ->
            List.mem fr.fr_func.Stackmap.fm_name changed
            && not
                 (match frames with
                  | innermost :: _ -> fr == innermost && entry_transferable ~new_bin fr
                  | [] -> false))
          frames
      in
      (match offending with
       | Some fr -> Error (Dapper_error.Active_function fr.fr_func.Stackmap.fm_name)
       | None -> scan rest)
  in
  scan stacks

let ( let* ) = Result.bind

let update ?(retries = 16) (p : Process.t) ~old_bin ~new_bin =
  if not (Arch.equal old_bin.Binary.bin_arch new_bin.Binary.bin_arch) then
    Error (Dapper_error.Layout_incompatible "architectures differ; use Rewrite for migration")
  else
    let* () = check_layout ~old_bin ~new_bin in
    let changed = changed_functions ~old_bin ~new_bin in
    let attempt () =
      let* _ = Monitor.request_pause p ~budget:Monitor.default_budget in
      let* image = Dapper_criu.Dump.dump p in
      let* stacks =
        Unwind.unwind_all image (Binary.index old_bin) ~anchors:old_bin.bin_anchors
      in
      let* () = check_quiescent_outside ~new_bin changed stacks in
      let* image', _ = Rewrite.rewrite image ~src:old_bin ~dst:new_bin in
      Dapper_criu.Restore.restore image' new_bin
    in
    (* If a thread happens to be parked inside a changed function, let
       the process run a little further and try again — the standard
       DSU activeness dance. *)
    Session.retry ~attempts:(retries + 1)
      ~should_retry:(function Dapper_error.Active_function _ -> true | _ -> false)
      ~before_retry:(fun () ->
        Monitor.resume p;
        ignore (Process.run p ~max_instrs:1_000))
      attempt
