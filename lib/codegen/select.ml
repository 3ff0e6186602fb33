open Dapper_isa
open Dapper_ir
open Dapper_binary

type fixup =
  | Fix_none
  | Fix_block of Ir.label
  | Fix_item of int
  | Fix_sym of string

type item = { ins : Minstr.t; fix : fixup }

type ep_marker = {
  m_index : int;
  m_id : int;
  m_kind : Stackmap.ep_kind;
  m_live : Stackmap.live_value list;
}

type sel_func = {
  sf_items : item array;
  sf_block_starts : int array;
  sf_eps : ep_marker list;
  sf_frame : Frame.t;
}

exception Select_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Select_error s)) fmt

(* Symbolic addresses are encoded with this placeholder so that pass-1
   sizes match pass-2 (all symbol addresses fit in 32 bits). *)
let addr_placeholder = 0x0040_0000L

let lv_ty_of_ir = function
  | Ir.I64 -> Stackmap.Lv_i64
  | Ir.F64 -> Stackmap.Lv_f64
  | Ir.Ptr -> Stackmap.Lv_ptr

type st = {
  opts : Opts.t;
  arch : Arch.t;
  tls : (string * int) list;
  func : Ir.func;
  frame : Frame.t;
  origin : Ir.slot_id option array;    (* vreg -> rematerializable slot address *)
  mutable items : item list;           (* reversed *)
  mutable count : int;
  mutable eps : ep_marker list;
  mutable ep_next : int;
  block_starts : int array;
  live : Ir.vreg list array array;
  block_live_in : Ir.vreg list array;
}

let emit st ?(fix = Fix_none) ins =
  st.items <- { ins; fix } :: st.items;
  st.count <- st.count + 1

let fp st = Arch.fp st.arch
let s0 st = List.nth (Arch.scratch st.arch) 0
let s1 st = List.nth (Arch.scratch st.arch) 1
let s2 st = List.nth (Arch.scratch st.arch) 2

(* Materialize an IR value into [dst]. *)
let load_value st (v : Ir.value) dst =
  match v with
  | Ir.Imm i -> emit st (Minstr.Movi (dst, i))
  | Ir.Fimm f -> emit st (Minstr.Movi (dst, Int64.bits_of_float f))
  | Ir.Global_addr g -> emit st ~fix:(Fix_sym g) (Minstr.Movi (dst, addr_placeholder))
  | Ir.Func_addr g -> emit st ~fix:(Fix_sym g) (Minstr.Movi (dst, addr_placeholder))
  | Ir.Vreg r ->
    (match st.origin.(r) with
     | Some s -> emit st (Minstr.Binopi (Add, dst, fp st, Int64.of_int st.frame.slot_offsets.(s)))
     | None -> emit st (Minstr.Load (dst, fp st, st.frame.temp_offsets.(r))))

let store_temp st d src = emit st (Minstr.Store (src, fp st, st.frame.temp_offsets.(d)))

let fits_s32 v = v >= -0x8000_0000L && v <= 0x7FFF_FFFFL

let is_float_op : Minstr.binop -> bool = function
  | Fadd | Fsub | Fmul | Fdiv | Fcmpeq | Fcmplt | Fcmple -> true
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar
  | Cmpeq | Cmpne | Cmplt | Cmple | Cmpgt | Cmpge | Cmpult -> false

(* Live-value records for an equivalence point: all named slots plus the
   given live temporaries (rematerializable slot addresses excluded). *)
let live_records st (temps : Ir.vreg list) =
  let slots =
    List.map
      (fun (s : Ir.slot) ->
        let loc =
          match Frame.promoted_reg st.frame s.sl_id with
          | Some r -> Stackmap.Reg r
          | None -> Stackmap.Frame st.frame.slot_offsets.(s.sl_id)
        in
        { Stackmap.lv_key = Stackmap.Slot s.sl_id; lv_name = s.sl_name;
          lv_ty = lv_ty_of_ir s.sl_ty; lv_size = s.sl_size; lv_loc = loc })
      st.func.fslots
  in
  let temps =
    List.filter_map
      (fun v ->
        match st.origin.(v) with
        | Some _ -> None
        | None ->
          Some
            { Stackmap.lv_key = Stackmap.Temp v; lv_name = Printf.sprintf "t%d" v;
              lv_ty = lv_ty_of_ir st.func.fvreg_tys.(v); lv_size = 8;
              lv_loc = Stackmap.Frame st.frame.temp_offsets.(v) })
      temps
  in
  slots @ temps

let add_ep st ~index ~kind ~temps =
  let id = st.ep_next in
  st.ep_next <- id + 1;
  st.eps <- { m_index = index; m_id = id; m_kind = kind; m_live = live_records st temps } :: st.eps

(* The inline dapper_checker: read the global flag; if raised and the
   thread is not inside a critical section, hit the breakpoint. The trap
   is the equivalence point. *)
let emit_checker st ~kind ~temps =
  let tls_off = Arch.tls_offset st.arch in
  let base = st.count in
  emit st ~fix:(Fix_sym "__dapper_flag") (Minstr.Movi (s0 st, addr_placeholder));
  emit st (Minstr.Load (s0 st, s0 st, 0));
  emit st ~fix:(Fix_item (base + 7)) (Minstr.Jz (s0 st, addr_placeholder));
  emit st (Minstr.Tls_get (s1 st));
  emit st (Minstr.Load (s1 st, s1 st, -tls_off));
  emit st ~fix:(Fix_item (base + 7)) (Minstr.Jnz (s1 st, addr_placeholder));
  add_ep st ~index:(base + 6) ~kind ~temps;
  emit st Minstr.Trap

let emit_prologue st =
  let sp = Arch.sp st.arch and fpr = fp st in
  let fs = st.frame.frame_size in
  (match st.arch with
   | Arch.X86_64 ->
     emit st (Minstr.Adjust_sp (-8));
     emit st (Minstr.Store (fpr, sp, 0));
     emit st (Minstr.Mov (fpr, sp));
     emit st (Minstr.Adjust_sp (-fs))
   | Arch.Aarch64 ->
     emit st (Minstr.Adjust_sp (-(fs + 16)));
     emit st (Minstr.Store (fpr, sp, fs));
     if not st.frame.leaf then emit st (Minstr.Store (30, sp, fs + 8));
     emit st (Minstr.Binopi (Add, fpr, sp, Int64.of_int fs)));
  (* Save callee-saved registers used for promotion. *)
  List.iter (fun (r, off) -> emit st (Minstr.Store (r, fpr, off))) st.frame.saved;
  (* Place incoming arguments. *)
  let args = Arch.arg_regs st.arch in
  List.iteri
    (fun j (_ : string * Ir.ty) ->
      let src = List.nth args j in
      match Frame.promoted_reg st.frame j with
      | Some preg -> emit st (Minstr.Mov (preg, src))
      | None -> emit st (Minstr.Store (src, fp st, st.frame.slot_offsets.(j))))
    st.func.fparams

let emit_epilogue st =
  let sp = Arch.sp st.arch and fpr = fp st in
  List.iter (fun (r, off) -> emit st (Minstr.Load (r, fpr, off))) st.frame.saved;
  match st.arch with
  | Arch.X86_64 ->
    emit st (Minstr.Mov (sp, fpr));
    emit st (Minstr.Load (fpr, sp, 0));
    emit st (Minstr.Adjust_sp 8);
    emit st Minstr.Ret
  | Arch.Aarch64 ->
    if not st.frame.leaf then emit st (Minstr.Load (30, fpr, 8));
    emit st (Minstr.Binopi (Add, sp, fpr, 16L));
    emit st (Minstr.Load (fpr, fpr, 0));
    emit st Minstr.Ret

let select_instr st bi idx (i : Ir.instr) =
  match i with
  | Ir.Slot_addr (d, s) ->
    (* Rematerialized at each use when single-def; otherwise computed into
       the temp slot like any other value. *)
    if st.origin.(d) = None then begin
      emit st (Minstr.Binopi (Add, s0 st, fp st, Int64.of_int st.frame.slot_offsets.(s)));
      store_temp st d (s0 st)
    end
  | Ir.Binop (op, d, a, b) ->
    load_value st a (s0 st);
    (match b with
     | Ir.Imm v when fits_s32 v && not (is_float_op op) ->
       emit st (Minstr.Binopi (op, s0 st, s0 st, v))
     | _ ->
       load_value st b (s1 st);
       emit st (Minstr.Binop (op, s0 st, s0 st, s1 st)));
    store_temp st d (s0 st)
  | Ir.Unop (op, d, a) ->
    load_value st a (s0 st);
    emit st (Minstr.Unop (op, s0 st, s0 st));
    store_temp st d (s0 st)
  | Ir.Load (d, addr) ->
    (match addr with
     | Ir.Vreg r when st.origin.(r) <> None ->
       let s = Option.get st.origin.(r) in
       emit st (Minstr.Load (s0 st, fp st, st.frame.slot_offsets.(s)))
     | _ ->
       load_value st addr (s0 st);
       emit st (Minstr.Load (s0 st, s0 st, 0)));
    store_temp st d (s0 st)
  | Ir.Store (v, addr) ->
    load_value st v (s0 st);
    (match addr with
     | Ir.Vreg r when st.origin.(r) <> None ->
       let s = Option.get st.origin.(r) in
       emit st (Minstr.Store (s0 st, fp st, st.frame.slot_offsets.(s)))
     | _ ->
       load_value st addr (s1 st);
       emit st (Minstr.Store (s0 st, s1 st, 0)))
  | Ir.Load8 (d, addr) ->
    load_value st addr (s0 st);
    emit st (Minstr.Load8 (s1 st, s0 st, 0));
    store_temp st d (s1 st)
  | Ir.Store8 (v, addr) ->
    load_value st v (s0 st);
    load_value st addr (s1 st);
    emit st (Minstr.Store8 (s0 st, s1 st, 0))
  | Ir.Slot_load (d, s) ->
    (match Frame.promoted_reg st.frame s with
     | Some preg -> emit st (Minstr.Mov (s0 st, preg))
     | None -> emit st (Minstr.Load (s0 st, fp st, st.frame.slot_offsets.(s))));
    store_temp st d (s0 st)
  | Ir.Slot_store (v, s) ->
    load_value st v (s0 st);
    (match Frame.promoted_reg st.frame s with
     | Some preg -> emit st (Minstr.Mov (preg, s0 st))
     | None -> emit st (Minstr.Store (s0 st, fp st, st.frame.slot_offsets.(s))))
  | Ir.Tls_addr (d, name) ->
    (* The TLS base register includes the architecture-specific libc
       offset; subtract it back out so the computed address is the true
       block-relative variable address (paper Section III-C, TLS). *)
    let var_off =
      match List.assoc_opt name st.tls with
      | Some o -> o
      | None -> fail "%s: unknown tls variable %s" st.func.fname name
    in
    let delta = var_off - Arch.tls_offset st.arch in
    emit st (Minstr.Tls_get (s0 st));
    emit st (Minstr.Binopi (Add, s0 st, s0 st, Int64.of_int delta));
    store_temp st d (s0 st)
  | Ir.Call (dst, callee, args) ->
    if List.length args > List.length (Arch.arg_regs st.arch) then
      fail "%s: too many call arguments" st.func.fname;
    List.iteri
      (fun j a ->
        load_value st a (s0 st);
        emit st (Minstr.Mov (List.nth (Arch.arg_regs st.arch) j, s0 st)))
      args;
    let call_index =
      match callee with
      | Ir.Direct name ->
        let ix = st.count in
        emit st ~fix:(Fix_sym name) (Minstr.Call addr_placeholder);
        ix
      | Ir.Indirect v ->
        load_value st v (s2 st);
        let ix = st.count in
        emit st (Minstr.Call_reg (s2 st));
        ix
    in
    (* Live temporaries across this call: live-after minus the call's dst. *)
    let live_after = st.live.(bi).(idx) in
    let temps = match dst with
      | Some d -> List.filter (fun v -> v <> d) live_after
      | None -> live_after
    in
    add_ep st ~index:call_index ~kind:(Stackmap.Call_site { cs_nargs = List.length args })
      ~temps;
    (match dst with
     | Some d ->
       emit st (Minstr.Mov (s0 st, Arch.ret_reg st.arch));
       store_temp st d (s0 st)
     | None -> ())

(* Block [bi] is a loop header if some block with label >= bi branches to
   it (a backward edge under the textual block order). *)
let is_loop_header (f : Ir.func) bi =
  Array.exists
    (fun (b : Ir.block) ->
      b.blabel >= bi
      && List.mem bi
           (match b.term with Ir.Ret _ -> [] | Ir.Br l -> [ l ] | Ir.Cbr (_, a, c) -> [ a; c ]))
    f.fblocks

let live_in_of_block st bi = st.block_live_in.(bi)

let select opts arch ~tls (f : Ir.func) =
  let frame = Frame.layout opts arch f in
  (* A vreg is rematerializable as a slot address only when its single
     definition is that Slot_addr (the IR is not necessarily SSA). *)
  let nv = max (Ir.vreg_count f) 1 in
  let origin = Array.make nv None in
  let defs = Array.make nv 0 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          (match i with
           | Ir.Binop (_, d, _, _) | Ir.Unop (_, d, _) | Ir.Load (d, _)
           | Ir.Load8 (d, _) | Ir.Slot_addr (d, _) | Ir.Slot_load (d, _)
           | Ir.Tls_addr (d, _) ->
             defs.(d) <- defs.(d) + 1
           | Ir.Call (Some d, _, _) -> defs.(d) <- defs.(d) + 1
           | Ir.Call (None, _, _) | Ir.Store _ | Ir.Store8 _ | Ir.Slot_store _ -> ());
          match i with
          | Ir.Slot_addr (d, s) -> origin.(d) <- Some s
          | _ -> ())
        b.instrs)
    f.fblocks;
  for v = 0 to nv - 1 do
    if defs.(v) > 1 then origin.(v) <- None
  done;
  let st =
    { opts; arch; tls; func = f; frame; origin; items = []; count = 0; eps = [];
      ep_next = 0; block_starts = Array.make (Array.length f.fblocks) 0;
      live = Ir.liveness f; block_live_in = Ir.block_live_in f }
  in
  emit_prologue st;
  emit_checker st ~kind:Stackmap.Entry ~temps:[];
  Array.iteri
    (fun bi (b : Ir.block) ->
      st.block_starts.(bi) <- st.count;
      if opts.backedge_checkers && bi > 0 && is_loop_header f bi then
        emit_checker st ~kind:Stackmap.Backedge ~temps:(live_in_of_block st bi);
      List.iteri (fun idx i -> select_instr st bi idx i) b.instrs;
      match b.term with
      | Ir.Ret v ->
        (match v with
         | Some v -> load_value st v (Arch.ret_reg arch)
         | None -> ());
        emit_epilogue st
      | Ir.Br l -> emit st ~fix:(Fix_block l) (Minstr.Jmp addr_placeholder)
      | Ir.Cbr (v, a, b') ->
        load_value st v (s0 st);
        emit st ~fix:(Fix_block a) (Minstr.Jnz (s0 st, addr_placeholder));
        emit st ~fix:(Fix_block b') (Minstr.Jmp addr_placeholder))
    f.fblocks;
  { sf_items = Array.of_list (List.rev st.items);
    sf_block_starts = st.block_starts; sf_eps = List.rev st.eps; sf_frame = frame }

let code_size arch sf =
  Array.fold_left (fun acc it -> acc + Encoding.size arch it.ins) 0 sf.sf_items

let item_offsets arch sf =
  let n = Array.length sf.sf_items in
  let offs = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offs.(i + 1) <- offs.(i) + Encoding.size arch sf.sf_items.(i).ins
  done;
  offs

let with_target (i : Minstr.t) addr : Minstr.t =
  match i with
  | Jmp _ -> Jmp addr
  | Jz (c, _) -> Jz (c, addr)
  | Jnz (c, _) -> Jnz (c, addr)
  | Call _ -> Call addr
  | Movi (d, _) -> Movi (d, addr)
  | Binopi (op, d, a, _) -> Binopi (op, d, a, addr)
  | _ -> invalid_arg "Select.with_target: instruction has no target field"
