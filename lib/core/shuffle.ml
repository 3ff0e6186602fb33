open Dapper_util
open Dapper_isa
open Dapper_binary

exception Shuffle_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Shuffle_error s)) fmt

type func_entropy = {
  fe_slots : int;
  fe_pinned : int;
  fe_bits : float;
}

type stats = {
  sh_funcs : func_entropy list;
  sh_instrs_rewritten : int;
}

let average_bits st =
  let with_slots = List.filter (fun fe -> fe.fe_slots > 0) st.sh_funcs in
  match with_slots with
  | [] -> 0.0
  | fes -> List.fold_left (fun acc fe -> acc +. fe.fe_bits) 0.0 fes
           /. float_of_int (List.length fes)

(* Frame-resident allocations of a function: named slots plus the
   spilled temporaries that are live at some equivalence point — exactly
   the stack objects the stack maps can relocate. Collected across all
   equivalence points, keyed by cross-ISA identity. *)
let frame_slots (fm : Stackmap.func_map) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ep : Stackmap.eqpoint) ->
      List.iter
        (fun (lv : Stackmap.live_value) ->
          match lv.lv_loc with
          | Stackmap.Frame off ->
            if not (Hashtbl.mem seen lv.lv_key) then
              Hashtbl.replace seen lv.lv_key (off, lv.lv_size)
          | Stackmap.Reg _ -> ())
        ep.ep_live)
    fm.fm_eqpoints;
  Hashtbl.fold (fun key (off, size) acc -> (key, off, size) :: acc) seen []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)

(* The slot whose [off, off + size) holds a frame offset, the first in
   list order. A function's slot list is short, so SBI scans it for each
   instruction. *)
let slot_at slots off = List.find_opt (fun (_, o, sz) -> off >= o && off < o + sz) slots

let shuffle_binary rng (binary : Binary.t) =
  let arch = binary.bin_arch in
  let fp = Arch.fp arch in
  let text =
    match Binary.find_section binary ".text" with
    | Some s -> s
    | None -> fail "no text section"
  in
  let code = Bytes.of_string text.sec_data in
  let instrs_rewritten = ref 0 in
  let fentropies = ref [] in
  let new_maps =
    List.map
      (fun (fm : Stackmap.func_map) ->
        let slots = frame_slots fm in
        if slots = [] || fm.fm_eqpoints = [] then begin
          if fm.fm_eqpoints <> [] then
            fentropies :=
              { fe_slots = 0; fe_pinned = 0; fe_bits = 0.0 }
              :: !fentropies;
          fm
        end
        else begin
          let fstart = Int64.to_int (Int64.sub fm.fm_addr text.sec_addr) in
          let fcode = Bytes.sub_string code fstart fm.fm_code_size in
          let instrs = Encoding.decode_all arch fcode in
          (* SBI discovery: fp-relative accesses below the save area that
             hit none of the stack-map allocations are spill slots; they
             are equally relocatable, so they join the shuffle pool. *)
          let known off = slot_at slots off <> None in
          let save_min =
            List.fold_left (fun acc (_, o) -> min acc o) 0 fm.fm_saved
          in
          let discovered = Hashtbl.create 16 in
          List.iter
            (fun (_, ins) ->
              let probe off =
                if off < save_min && off >= -fm.fm_frame_size && not (known off)
                   && off mod 8 = 0
                then Hashtbl.replace discovered off ()
              in
              match ins with
              | Minstr.Load (_, b, off) | Minstr.Store (_, b, off) when b = fp -> probe off
              | Minstr.Binopi (Minstr.Add, _, b, imm)
                when b = fp && Int64.compare imm 0L < 0 ->
                probe (Int64.to_int imm)
              | _ -> ())
            instrs;
          let slots =
            slots
            @ (Hashtbl.fold
                 (fun off () acc -> (Stackmap.Temp (1_000_000 - off), off, 8) :: acc)
                 discovered []
               |> List.sort (fun (_, a, _) (_, b, _) -> compare a b))
          in
          (* Slots referenced through pair instructions are pinned. *)
          let slot_containing = slot_at slots in
          let pinned = Hashtbl.create 8 in
          List.iter
            (fun (_, ins) ->
              match ins with
              | Minstr.Load_pair (_, _, b, off) | Minstr.Store_pair (_, _, b, off)
                when b = fp ->
                List.iter
                  (fun delta ->
                    match slot_containing (off + delta) with
                    | Some (sid, _, _) -> Hashtbl.replace pinned sid ()
                    | None -> ())
                  [ 0; 8 ]
              | _ -> ())
            instrs;
          (* Permute unpinned slots within equal-size classes. *)
          let unpinned =
            List.filter (fun (sid, _, _) -> not (Hashtbl.mem pinned sid)) slots
          in
          let by_size = Hashtbl.create 4 in
          List.iter
            (fun (sid, off, sz) ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt by_size sz) in
              Hashtbl.replace by_size sz ((sid, off) :: cur))
            unpinned;
          let remap = Hashtbl.create 8 in (* slot id -> new offset *)
          Hashtbl.iter
            (fun _sz group ->
              let group = Array.of_list group in
              let offsets = Array.map snd group in
              let perm = Array.copy offsets in
              Rng.shuffle rng perm;
              Array.iteri (fun k (sid, _) -> Hashtbl.replace remap sid perm.(k)) group)
            by_size;
          (* Count shuffle candidates for entropy: all unpinned slots in
             classes of size >= 2. *)
          let candidates =
            Hashtbl.fold
              (fun _ group acc ->
                let n = List.length group in
                if n >= 2 then acc + n else acc)
              by_size 0
          in
          let new_off_of sid old_off =
            match Hashtbl.find_opt remap sid with
            | Some o -> o
            | None -> old_off
          in
          (* Patch the code: every fp-relative access or address
             materialization landing in a shuffled slot. *)
          let patch_off off =
            match slot_containing off with
            | Some (sid, old_off, _) -> new_off_of sid old_off + (off - old_off)
            | None -> off
          in
          let out = Bytes.of_string fcode in
          List.iter
            (fun (ioff, ins) ->
              let patched : Minstr.t option =
                match ins with
                | Minstr.Load (d, b, off) when b = fp && patch_off off <> off ->
                  Some (Minstr.Load (d, b, patch_off off))
                | Minstr.Store (s, b, off) when b = fp && patch_off off <> off ->
                  Some (Minstr.Store (s, b, patch_off off))
                | Minstr.Load8 (d, b, off) when b = fp && patch_off off <> off ->
                  Some (Minstr.Load8 (d, b, patch_off off))
                | Minstr.Store8 (s, b, off) when b = fp && patch_off off <> off ->
                  Some (Minstr.Store8 (s, b, patch_off off))
                | Minstr.Binopi (Minstr.Add, d, b, imm)
                  when b = fp
                       && Int64.compare imm 0L < 0
                       && patch_off (Int64.to_int imm) <> Int64.to_int imm ->
                  Some (Minstr.Binopi (Minstr.Add, d, b, Int64.of_int (patch_off (Int64.to_int imm))))
                | _ -> None
              in
              match patched with
              | None -> ()
              | Some ins' ->
                incr instrs_rewritten;
                let buf = Bytebuf.create 16 in
                Encoding.encode arch buf ins';
                let bytes = Bytebuf.contents buf in
                if String.length bytes <> Encoding.size arch ins then
                  fail "%s: patched instruction changed size" fm.fm_name;
                Bytes.blit_string bytes 0 out ioff (String.length bytes))
            instrs;
          Bytes.blit out 0 code fstart fm.fm_code_size;
          (* Update stack maps: any frame location inside a shuffled
             allocation moves with it. *)
          let fix_lv (lv : Stackmap.live_value) =
            match lv.lv_loc with
            | Stackmap.Frame off -> { lv with lv_loc = Stackmap.Frame (patch_off off) }
            | Stackmap.Reg _ -> lv
          in
          let eqpoints =
            List.map
              (fun (ep : Stackmap.eqpoint) -> { ep with ep_live = List.map fix_lv ep.ep_live })
              fm.fm_eqpoints
          in
          fentropies :=
            { fe_slots = List.length slots; fe_pinned = Hashtbl.length pinned;
              fe_bits = float_of_int candidates /. 2.0 }
            :: !fentropies;
          { fm with fm_eqpoints = eqpoints }
        end)
      binary.bin_stackmaps
  in
  let binary' =
    { (Binary.with_text binary (Bytes.to_string code)) with bin_stackmaps = new_maps }
  in
  ( binary',
    { sh_funcs = List.rev !fentropies; sh_instrs_rewritten = !instrs_rewritten } )
