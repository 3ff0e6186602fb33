open Dapper_isa
open Dapper_binary
module Link = Dapper_codegen.Link

type violation = { vi_where : string; vi_what : string }

let violation_to_string v = v.vi_where ^ ": " ^ v.vi_what

(* Collector: checks append violations instead of failing fast, so one
   run reports every broken record (and tests can assert precision). *)
type ctx = { mutable viols : violation list }

let err ctx where fmt =
  Printf.ksprintf (fun s -> ctx.viols <- { vi_where = where; vi_what = s } :: ctx.viols) fmt

(* ----- per-binary checks ----- *)

let in_range a lo hi = Int64.compare a lo >= 0 && Int64.compare a hi <= 0

let fm_end (fm : Stackmap.func_map) =
  Int64.add fm.Stackmap.fm_addr (Int64.of_int fm.Stackmap.fm_code_size)

(* Decode the single instruction at [addr] inside the text section. *)
let decode_at (bin : Binary.t) text_end addr =
  let avail = Int64.to_int (Int64.sub text_end addr) in
  if avail <= 0 then None
  else
    let window = Binary.code_bytes bin addr (min 16 avail) in
    Encoding.decode bin.Binary.bin_arch window 0

let check_eqpoint ctx bin text_end (fm : Stackmap.func_map) (ep : Stackmap.eqpoint) =
  let arch = bin.Binary.bin_arch in
  let where = Printf.sprintf "%s/%s ep%d" (Arch.name arch) fm.fm_name ep.ep_id in
  if not (in_range ep.ep_addr fm.fm_addr (fm_end fm)) then
    err ctx where "ep_addr 0x%Lx outside function [0x%Lx,0x%Lx)" ep.ep_addr fm.fm_addr
      (fm_end fm);
  if not (in_range ep.ep_resume fm.fm_addr (fm_end fm)) then
    err ctx where "ep_resume 0x%Lx outside function" ep.ep_resume;
  if Int64.compare ep.ep_resume ep.ep_addr <= 0 then
    err ctx where "ep_resume 0x%Lx not after ep_addr 0x%Lx" ep.ep_resume ep.ep_addr;
  (* the recorded address must hold the instruction the kind promises,
     with the resume point exactly one encoding later *)
  (match decode_at bin text_end ep.ep_addr with
   | None -> err ctx where "undecodable instruction at ep_addr 0x%Lx" ep.ep_addr
   | Some (instr, size) ->
     let expect_resume = Int64.add ep.ep_addr (Int64.of_int size) in
     (match (ep.ep_kind, instr) with
      | (Stackmap.Entry | Stackmap.Backedge), Minstr.Trap -> ()
      | (Stackmap.Entry | Stackmap.Backedge), _ ->
        err ctx where "checker point does not decode to a trap (%s)"
          (Minstr.to_string arch instr)
      | Stackmap.Call_site _, (Minstr.Call _ | Minstr.Call_reg _) -> ()
      | Stackmap.Call_site _, _ ->
        err ctx where "call-site point does not decode to a call (%s)"
          (Minstr.to_string arch instr));
     if not (Int64.equal ep.ep_resume expect_resume) then
       err ctx where "ep_resume 0x%Lx is not ep_addr + insn size (expected 0x%Lx)"
         ep.ep_resume expect_resume);
  (match ep.ep_kind with
   | Stackmap.Call_site { cs_nargs } ->
     let max_args = List.length (Arch.arg_regs arch) in
     if cs_nargs < 0 || cs_nargs > max_args then
       err ctx where "cs_nargs %d outside the %d-register calling convention" cs_nargs
         max_args
   | Stackmap.Entry | Stackmap.Backedge -> ());
  (* live records: typed, sized, in-frame / in a callee-saved register,
     pairwise disjoint, below the saved-fp/return-address pair *)
  let saved_intervals = List.map (fun (_, off) -> (off, off + 8)) fm.fm_saved in
  let seen_keys = Hashtbl.create 8 in
  let intervals = ref [] in
  List.iter
    (fun (lv : Stackmap.live_value) ->
      let lwhere = Printf.sprintf "%s %s" where lv.lv_name in
      if Hashtbl.mem seen_keys lv.lv_key then err ctx lwhere "duplicate live-value key";
      Hashtbl.replace seen_keys lv.lv_key ();
      if lv.lv_size <= 0 || lv.lv_size mod 8 <> 0 then
        err ctx lwhere "bad size %d" lv.lv_size;
      match lv.lv_loc with
      | Stackmap.Reg r ->
        if r < 0 || r >= Arch.gpr_count arch then err ctx lwhere "invalid register %d" r
        else if not (List.mem r (Arch.callee_saved arch)) then
          err ctx lwhere "register %s is not callee-saved" (Arch.reg_name arch r);
        if lv.lv_size <> 8 then
          err ctx lwhere "register-resident value of %d bytes" lv.lv_size
      | Stackmap.Frame off ->
        (* strictly below fp: [fp+0] holds the caller fp and [fp+8] the
           return address (Layout/Frame geometry), so no live value may
           reach offset 0 or above *)
        if off >= 0 || off + lv.lv_size > 0 || off < -fm.fm_frame_size then
          err ctx lwhere "slot [%d,%d) escapes frame of %d bytes" off (off + lv.lv_size)
            fm.fm_frame_size;
        List.iter
          (fun (lo, hi) ->
            if not (off + lv.lv_size <= lo || off >= hi) then
              err ctx lwhere "slot [%d,%d) overlaps callee-save slot [%d,%d)" off
                (off + lv.lv_size) lo hi)
          saved_intervals;
        List.iter
          (fun (lo, hi) ->
            if not (off + lv.lv_size <= lo || off >= hi) then
              err ctx lwhere "slot [%d,%d) overlaps another live slot [%d,%d)" off
                (off + lv.lv_size) lo hi)
          !intervals;
        intervals := (off, off + lv.lv_size) :: !intervals)
    ep.ep_live

let check_func ctx bin text_end (fm : Stackmap.func_map) =
  let arch = bin.Binary.bin_arch in
  let where = Printf.sprintf "%s/%s" (Arch.name arch) fm.fm_name in
  if fm.fm_code_size <= 0 then err ctx where "empty code range";
  if not (in_range fm.fm_addr Layout.code_base Layout.data_base)
     || not (in_range (fm_end fm) Layout.code_base Layout.data_base)
  then err ctx where "function range outside the Layout code region";
  if Int64.compare (fm_end fm) text_end > 0 then
    err ctx where "function range extends past .text";
  (* the symbol table must agree with the map (same aligned address and
     padded size) — the unwinder resolves one, the rewriter the other *)
  (match Binary.find_symbol bin fm.fm_name with
   | None -> err ctx where "no symbol for mapped function"
   | Some sym ->
     if sym.sym_kind <> Binary.Sym_func then err ctx where "symbol is not Sym_func";
     if not (Int64.equal sym.sym_addr fm.fm_addr) then
       err ctx where "symbol addr 0x%Lx <> fm_addr 0x%Lx" sym.sym_addr fm.fm_addr;
     if sym.sym_size <> fm.fm_code_size then
       err ctx where "symbol size %d <> fm_code_size %d" sym.sym_size fm.fm_code_size);
  if fm.fm_frame_size < 0 || fm.fm_frame_size mod 16 <> 0 then
    err ctx where "frame size %d not 16-aligned" fm.fm_frame_size;
  if fm.fm_frame_size >= Layout.stack_region then
    err ctx where "frame size %d exceeds a Layout stack region" fm.fm_frame_size;
  let offs = ref [] in
  List.iter
    (fun (r, off) ->
      if not (List.mem r (Arch.callee_saved arch)) then
        err ctx where "saved register %s is not callee-saved" (Arch.reg_name arch r);
      if off >= 0 || off < -fm.fm_frame_size then
        err ctx where "save slot %d for %s outside the frame" off (Arch.reg_name arch r);
      if off mod 8 <> 0 then err ctx where "save slot %d misaligned" off;
      if List.mem off !offs then err ctx where "duplicate save slot %d" off;
      offs := off :: !offs)
    fm.fm_saved;
  List.iter
    (fun (slot, r) ->
      if not (List.mem_assoc r fm.fm_saved) then
        err ctx where "promoted slot %d register %s has no save slot" slot
          (Arch.reg_name arch r))
    fm.fm_promoted;
  (* equivalence-point ids unique and dense from 0 *)
  let ids = List.map (fun (ep : Stackmap.eqpoint) -> ep.ep_id) fm.fm_eqpoints in
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then err ctx where "duplicate eqpoint ids";
  List.iteri
    (fun k id -> if k <> id then err ctx where "eqpoint ids not dense from 0 (%d at rank %d)" id k)
    sorted;
  List.iter (check_eqpoint ctx bin text_end fm) fm.fm_eqpoints

let check_binary (bin : Binary.t) =
  let ctx = { viols = [] } in
  let arch_name = Arch.name bin.Binary.bin_arch in
  (match Binary.find_section bin ".text" with
   | None -> err ctx arch_name "missing .text section"
   | Some text ->
     let text_end = Int64.add text.sec_addr (Int64.of_int (String.length text.sec_data)) in
     (* disjoint function ranges *)
     let ranges =
       List.sort compare
         (List.map (fun (fm : Stackmap.func_map) -> (fm.fm_addr, fm_end fm, fm.fm_name))
            bin.Binary.bin_stackmaps)
     in
     let rec overlap = function
       | (_, hi, a) :: ((lo, _, b) :: _ as rest) ->
         if Int64.compare lo hi < 0 then
           err ctx arch_name "functions %s and %s overlap" a b;
         overlap rest
       | _ -> []
     in
     ignore (overlap ranges);
     (* anchors point where the runtime expects *)
     let anchors = bin.Binary.bin_anchors in
     (match Stackmap.find_func bin.Binary.bin_stackmaps "main" with
      | None -> err ctx arch_name "no stack map for main"
      | Some fm ->
        if not (Int64.equal anchors.a_entry fm.Stackmap.fm_addr) then
          err ctx arch_name "a_entry 0x%Lx is not main's address 0x%Lx" anchors.a_entry
            fm.Stackmap.fm_addr);
     List.iter
       (fun (name, a) ->
         if not (in_range a text.sec_addr text_end) then
           err ctx arch_name "%s 0x%Lx outside .text" name a)
       [ ("a_exit_stub", anchors.a_exit_stub);
         ("a_thread_exit_stub", anchors.a_thread_exit_stub) ];
     (match Binary.find_section bin ".data" with
      | None -> err ctx arch_name "missing .data section"
      | Some data ->
        let data_end = Int64.add data.sec_addr (Int64.of_int (String.length data.sec_data)) in
        if not (in_range anchors.a_flag data.sec_addr data_end) then
          err ctx arch_name "a_flag 0x%Lx outside .data" anchors.a_flag);
     List.iter (check_func ctx bin text_end) bin.Binary.bin_stackmaps);
  List.rev ctx.viols

(* ----- cross-pair checks ----- *)

let check_pair (bx : Binary.t) (ba : Binary.t) =
  let ctx = { viols = [] } in
  let where = Printf.sprintf "%s pair" bx.Binary.bin_app in
  if Arch.equal bx.Binary.bin_arch ba.Binary.bin_arch then
    err ctx where "both binaries target %s" (Arch.name bx.Binary.bin_arch);
  if bx.Binary.bin_app <> ba.Binary.bin_app then
    err ctx where "application names differ (%s vs %s)" bx.Binary.bin_app ba.Binary.bin_app;
  (* the unified address space: equal symbols, byte-identical data *)
  let sym_key (s : Binary.symbol) = (s.sym_name, s.sym_addr, s.sym_size, s.sym_kind) in
  let sx = List.sort compare (List.map sym_key bx.Binary.bin_symbols) in
  let sa = List.sort compare (List.map sym_key ba.Binary.bin_symbols) in
  if sx <> sa then err ctx where "symbol tables differ";
  (match (Binary.find_section bx ".data", Binary.find_section ba ".data") with
   | Some dx, Some da when dx.sec_data <> da.sec_data ->
     err ctx where ".data sections are not byte-identical"
   | _ -> ());
  if bx.Binary.bin_tls_size <> ba.Binary.bin_tls_size
     || bx.Binary.bin_tls_init <> ba.Binary.bin_tls_init
  then err ctx where "TLS images differ";
  if bx.Binary.bin_anchors <> ba.Binary.bin_anchors then err ctx where "anchors differ";
  (* function-by-function correspondence *)
  let mx = bx.Binary.bin_stackmaps and ma = ba.Binary.bin_stackmaps in
  if List.length mx <> List.length ma then
    err ctx where "function counts differ (%d vs %d)" (List.length mx) (List.length ma)
  else
    List.iter2
      (fun (fx : Stackmap.func_map) (fa : Stackmap.func_map) ->
        let fwhere = Printf.sprintf "%s pair/%s" bx.Binary.bin_app fx.fm_name in
        if fx.fm_name <> fa.fm_name then
          err ctx where "function order differs (%s vs %s)" fx.fm_name fa.fm_name
        else begin
          if not (Int64.equal fx.fm_addr fa.fm_addr) then
            err ctx fwhere "aligned addresses differ (0x%Lx vs 0x%Lx)" fx.fm_addr fa.fm_addr;
          if fx.fm_code_size <> fa.fm_code_size then
            err ctx fwhere "padded sizes differ (%d vs %d)" fx.fm_code_size fa.fm_code_size;
          if fx.fm_leaf <> fa.fm_leaf then err ctx fwhere "leaf-ness differs";
          (* equivalence points must be bijective by id with equal kinds
             and live-value key sets of equal type and size: this is
             exactly what lets the rewriter pair source and target
             records *)
          let by_id (eps : Stackmap.eqpoint list) =
            List.sort compare (List.map (fun (ep : Stackmap.eqpoint) -> ep.ep_id) eps)
          in
          if by_id fx.fm_eqpoints <> by_id fa.fm_eqpoints then
            err ctx fwhere "eqpoint ids are not bijective"
          else
            List.iter
              (fun (ex : Stackmap.eqpoint) ->
                match Stackmap.eqpoint_by_id fa ex.ep_id with
                | None -> ()
                | Some ea ->
                  let ewhere = Printf.sprintf "%s ep%d" fwhere ex.ep_id in
                  if ex.ep_kind <> ea.ep_kind then err ctx ewhere "kinds differ";
                  let live (ep : Stackmap.eqpoint) =
                    List.sort compare
                      (List.map
                         (fun (lv : Stackmap.live_value) -> (lv.lv_key, lv.lv_ty, lv.lv_size))
                         ep.ep_live)
                  in
                  if live ex <> live ea then
                    err ctx ewhere "live-value keys/types/sizes differ")
              fx.fm_eqpoints
        end)
      mx ma;
  List.rev ctx.viols

let check_compiled (c : Link.compiled) =
  check_binary c.Link.cp_x86 @ check_binary c.Link.cp_arm
  @ check_pair c.Link.cp_x86 c.Link.cp_arm

let run c =
  match check_compiled c with
  | [] -> Ok ()
  | first :: rest ->
    Error
      (Dapper_util.Dapper_error.Verify_failed
         (Printf.sprintf "%s%s" (violation_to_string first)
            (match rest with
             | [] -> ""
             | _ -> Printf.sprintf " (and %d more)" (List.length rest))))

(* ----- mutation corpus ----- *)

(* Rebuild [c] with the x86-64 stack maps passed through [f]; [f]
   returns [None] when the mutation found no applicable site. *)
let mutate_x86 (c : Link.compiled)
    (f : Stackmap.func_map list -> Stackmap.func_map list option) =
  match f c.Link.cp_x86.Binary.bin_stackmaps with
  | None -> None
  | Some maps ->
    Some { c with Link.cp_x86 = Binary.with_stackmaps c.Link.cp_x86 maps }

(* Apply [f] to the first function map satisfying [pred]. *)
let on_first_fm pred f maps =
  let rec go acc = function
    | [] -> None
    | fm :: rest ->
      if pred fm then Some (List.rev_append acc (f fm :: rest)) else go (fm :: acc) rest
  in
  go [] maps

let has_frame_lv (fm : Stackmap.func_map) =
  List.exists
    (fun (ep : Stackmap.eqpoint) ->
      List.exists
        (fun (lv : Stackmap.live_value) ->
          match lv.lv_loc with Stackmap.Frame _ -> true | Stackmap.Reg _ -> false)
        ep.ep_live)
    fm.fm_eqpoints

let has_scalar_lv (fm : Stackmap.func_map) =
  List.exists
    (fun (ep : Stackmap.eqpoint) ->
      List.exists (fun (lv : Stackmap.live_value) -> lv.lv_size = 8) ep.ep_live)
    fm.fm_eqpoints

(* Rewrite the first live value satisfying [pred] inside a function. *)
let map_first_lv pred f (fm : Stackmap.func_map) =
  let hit = ref false in
  let eqpoints =
    List.map
      (fun (ep : Stackmap.eqpoint) ->
        { ep with
          Stackmap.ep_live =
            List.map
              (fun (lv : Stackmap.live_value) ->
                if (not !hit) && pred lv then begin hit := true; f lv end else lv)
              ep.ep_live })
      fm.fm_eqpoints
  in
  { fm with Stackmap.fm_eqpoints = eqpoints }

let is_frame (lv : Stackmap.live_value) =
  match lv.lv_loc with Stackmap.Frame _ -> true | Stackmap.Reg _ -> false

let corruptions (c : Link.compiled) =
  let candidates =
    [ ( "live-out-of-frame",
        mutate_x86 c
          (on_first_fm has_frame_lv
             (map_first_lv is_frame (fun lv -> { lv with Stackmap.lv_loc = Stackmap.Frame 16 }))) );
      ( "slot-overlap",
        mutate_x86 c
          (on_first_fm has_frame_lv (fun fm ->
               (* duplicate the first frame-resident value under a fresh
                  key at the same offset: two records now claim the slot *)
               let dup = ref None in
               let eqpoints =
                 List.map
                   (fun (ep : Stackmap.eqpoint) ->
                     match
                       ( !dup,
                         List.find_opt (fun lv -> is_frame lv) ep.Stackmap.ep_live )
                     with
                     | None, Some lv ->
                       let ghost =
                         { lv with
                           Stackmap.lv_key = Stackmap.Temp 99991;
                           lv_name = "__ghost" }
                       in
                       dup := Some ();
                       { ep with Stackmap.ep_live = ghost :: ep.Stackmap.ep_live }
                     | _ -> ep)
                   fm.Stackmap.fm_eqpoints
               in
               { fm with Stackmap.fm_eqpoints = eqpoints })) );
      ( "reg-not-callee-saved",
        mutate_x86 c
          (on_first_fm has_scalar_lv
             (map_first_lv
                (fun lv -> lv.lv_size = 8)
                (fun lv ->
                  { lv with
                    Stackmap.lv_loc = Stackmap.Reg (Arch.sp c.Link.cp_x86.Binary.bin_arch)
                  }))) );
      ( "eqpoint-id-skew",
        mutate_x86 c
          (on_first_fm
             (fun fm -> fm.Stackmap.fm_eqpoints <> [])
             (fun fm ->
               let eqpoints =
                 match List.rev fm.Stackmap.fm_eqpoints with
                 | last :: rest ->
                   List.rev ({ last with Stackmap.ep_id = last.Stackmap.ep_id + 1000 } :: rest)
                 | [] -> []
               in
               { fm with Stackmap.fm_eqpoints = eqpoints })) );
      ( "resume-out-of-range",
        mutate_x86 c
          (on_first_fm
             (fun fm -> fm.Stackmap.fm_eqpoints <> [])
             (fun fm ->
               let target =
                 Int64.add fm.Stackmap.fm_addr
                   (Int64.of_int (fm.Stackmap.fm_code_size + 64))
               in
               let eqpoints =
                 match fm.Stackmap.fm_eqpoints with
                 | ep :: rest -> { ep with Stackmap.ep_resume = target } :: rest
                 | [] -> []
               in
               { fm with Stackmap.fm_eqpoints = eqpoints })) );
      ( "save-slot-escape",
        mutate_x86 c
          (on_first_fm
             (fun fm -> fm.Stackmap.fm_saved <> [])
             (fun fm ->
               let saved =
                 match fm.Stackmap.fm_saved with
                 | (r, _) :: rest -> (r, 8) :: rest
                 | [] -> []
               in
               { fm with Stackmap.fm_saved = saved })) );
      ( "frame-misaligned",
        mutate_x86 c
          (on_first_fm
             (fun fm -> fm.Stackmap.fm_frame_size > 0)
             (fun fm -> { fm with Stackmap.fm_frame_size = fm.Stackmap.fm_frame_size + 8 })) );
      ( "type-skew",
        mutate_x86 c
          (on_first_fm has_scalar_lv
             (map_first_lv
                (fun lv -> lv.lv_size = 8)
                (fun lv ->
                  let flipped =
                    match lv.Stackmap.lv_ty with
                    | Stackmap.Lv_i64 -> Stackmap.Lv_ptr
                    | Stackmap.Lv_ptr | Stackmap.Lv_f64 -> Stackmap.Lv_i64
                  in
                  { lv with Stackmap.lv_ty = flipped }))) ) ]
  in
  List.filter_map (fun (name, c) -> Option.map (fun c -> (name, c)) c) candidates
