open Dapper_util
open Dapper_isa
open Dapper_ir
open Dapper_binary

type compiled = {
  cp_app : string;
  cp_x86 : Binary.t;
  cp_arm : Binary.t;
}

exception Link_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let align n a = (n + a - 1) / a * a

(* ----- TLS layout: crit_depth header at offset 0, variables after ----- *)

let tls_layout (m : Ir.modul) =
  let cursor = ref 8 in
  let offsets =
    List.map
      (fun (t : Ir.tls_var) ->
        let off = !cursor in
        cursor := !cursor + align (max t.t_size 8) 8;
        (t.t_name, off))
      m.m_tls
  in
  (offsets, !cursor)

(* ----- data layout: the dapper flag first, then globals ----- *)

let data_layout (m : Ir.modul) =
  let cursor = ref 0 in
  let entries = ref [] in
  let add name size init =
    let off = align !cursor 16 in
    cursor := off + size;
    entries := (name, off, size, init) :: !entries
  in
  add "__dapper_flag" 8 None;
  List.iter (fun (g : Ir.global) -> add g.g_name g.g_size g.g_init) m.m_globals;
  let entries = List.rev !entries in
  let total = align !cursor 16 in
  let data = Bytes.make total '\000' in
  List.iter
    (fun (_, off, size, init) ->
      match init with
      | Some s ->
        if String.length s > size then fail "global initializer larger than global";
        Bytes.blit_string s 0 data off (String.length s)
      | None -> ())
    entries;
  (entries, Bytes.to_string data)

(* ----- per-architecture compiled function ----- *)

type cfunc =
  | C_ir of Select.sel_func
  | C_rt of Minstr.t list

let cfunc_size arch = function
  | C_ir sf -> Select.code_size arch sf
  | C_rt items -> List.fold_left (fun acc i -> acc + Encoding.size arch i) 0 items

let encode_cfunc arch ~addr ~padded ~sym_addr cf =
  let buf = Bytebuf.create 256 in
  (match cf with
   | C_rt items -> List.iter (Encoding.encode arch buf) items
   | C_ir sf ->
     let offs = Select.item_offsets arch sf in
     Array.iteri
       (fun i (it : Select.item) ->
         let resolve target = Int64.add addr (Int64.of_int offs.(target)) in
         let ins =
           match it.fix with
           | Select.Fix_none -> it.ins
           | Select.Fix_item t -> Select.with_target it.ins (resolve t)
           | Select.Fix_block l -> Select.with_target it.ins (resolve sf.sf_block_starts.(l))
           | Select.Fix_sym s -> Select.with_target it.ins (sym_addr s)
         in
         ignore i;
         Encoding.encode arch buf ins)
       sf.sf_items);
  let body = Bytebuf.contents buf in
  if String.length body > padded then fail "function body exceeds padded size";
  let pad = Bytebuf.create 16 in
  let nop = Encoding.nop_bytes arch in
  let remaining = padded - String.length body in
  if remaining mod String.length nop <> 0 then
    fail "padding not a multiple of nop size";
  for _ = 1 to remaining / String.length nop do
    Bytebuf.add_bytes pad nop
  done;
  body ^ Bytebuf.contents pad

let func_map_of arch ~addr ~padded = function
  | C_rt _ ->
    fun name ->
      { Stackmap.fm_name = name; fm_addr = addr; fm_code_size = padded;
        fm_frame_size = 0; fm_saved = []; fm_promoted = []; fm_leaf = true;
        fm_eqpoints = [] }
  | C_ir sf ->
    fun name ->
      let offs = Select.item_offsets arch sf in
      let eqpoints =
        List.map
          (fun (m : Select.ep_marker) ->
            { Stackmap.ep_id = m.m_id; ep_kind = m.m_kind;
              ep_addr = Int64.add addr (Int64.of_int offs.(m.m_index));
              ep_resume = Int64.add addr (Int64.of_int offs.(m.m_index + 1));
              ep_live = m.m_live })
          sf.sf_eps
      in
      { Stackmap.fm_name = name; fm_addr = addr; fm_code_size = padded;
        fm_frame_size = sf.sf_frame.Frame.frame_size;
        fm_saved = sf.sf_frame.Frame.saved;
        fm_promoted = sf.sf_frame.Frame.promoted;
        fm_leaf = sf.sf_frame.Frame.leaf;
        fm_eqpoints = eqpoints }

let compile ?(opts = Opts.default) ~app (m : Ir.modul) =
  (match Ir.validate ~externs:Runtime.externs m with
   | [] -> ()
   | errs -> fail "IR validation failed for %s:\n  %s" app (String.concat "\n  " errs));
  let rt_names = List.map fst (Runtime.functions Arch.X86_64) in
  List.iter
    (fun (f : Ir.func) ->
      if List.mem f.fname rt_names then
        fail "function %s collides with the runtime library" f.fname)
    m.m_funcs;
  if not (List.exists (fun (f : Ir.func) -> f.fname = "main") m.m_funcs) then
    fail "%s: no main function" app;
  let tls_offsets, tls_size = tls_layout m in
  let data_entries, data_bytes = data_layout m in
  (* Select everything for both architectures. *)
  let cfuncs arch =
    let rt = List.map (fun (n, items) -> (n, C_rt items)) (Runtime.functions arch) in
    let irf =
      List.map
        (fun f ->
          let sf = Select.select opts arch ~tls:tls_offsets f in
          let sf =
            if arch = Arch.Aarch64 && opts.arm_pair_fusion then Pairfuse.run sf else sf
          in
          (f.Ir.fname, C_ir sf))
        m.m_funcs
    in
    rt @ irf
  in
  let x86_funcs = cfuncs Arch.X86_64 in
  let arm_funcs = cfuncs Arch.Aarch64 in
  (* Alignment pass: common padded size, common address. *)
  let layout = ref [] in
  let cursor = ref Layout.code_base in
  List.iter2
    (fun (name, cx) (name', ca) ->
      assert (name = name');
      let size = max (cfunc_size Arch.X86_64 cx) (cfunc_size Arch.Aarch64 ca) in
      if opts.pad_quantum < 16 || opts.pad_quantum mod 16 <> 0 then
        fail "pad_quantum must be a positive multiple of 16";
      let padded = align size opts.pad_quantum in
      layout := (name, !cursor, padded, cx, ca) :: !layout;
      cursor := Int64.add !cursor (Int64.of_int padded))
    x86_funcs arm_funcs;
  let layout = List.rev !layout in
  (* Symbol table (same for both architectures). *)
  let func_syms =
    List.map
      (fun (name, addr, padded, _, _) ->
        { Binary.sym_name = name; sym_addr = addr; sym_size = padded;
          sym_kind = Binary.Sym_func })
      layout
  in
  let data_syms =
    List.map
      (fun (name, off, size, _) ->
        { Binary.sym_name = name; sym_addr = Int64.add Layout.data_base (Int64.of_int off);
          sym_size = size; sym_kind = Binary.Sym_object })
      data_entries
  in
  let tls_syms =
    List.map
      (fun (name, off) ->
        { Binary.sym_name = name; sym_addr = Int64.of_int off; sym_size = 8;
          sym_kind = Binary.Sym_tls })
      tls_offsets
  in
  let symbols = func_syms @ data_syms @ tls_syms in
  let sym_addr s =
    match List.find_opt (fun sym -> sym.Binary.sym_name = s) (func_syms @ data_syms) with
    | Some sym -> sym.Binary.sym_addr
    | None -> fail "unresolved symbol %s" s
  in
  let build arch funcs =
    let text = Buffer.create 65536 in
    let maps = ref [] in
    List.iter2
      (fun (name, addr, padded, cx, ca) (name', cf) ->
        assert (name = name');
        ignore cx;
        ignore ca;
        Buffer.add_string text (encode_cfunc arch ~addr ~padded ~sym_addr cf);
        maps := func_map_of arch ~addr ~padded cf name :: !maps)
      layout funcs;
    let anchors =
      { Binary.a_entry = sym_addr "main";
        a_exit_stub = sym_addr Runtime.process_exit_stub;
        a_thread_exit_stub = sym_addr Runtime.thread_exit_stub;
        a_flag = sym_addr "__dapper_flag" }
    in
    { Binary.bin_app = app; bin_arch = arch;
      bin_sections =
        [ { Binary.sec_name = ".text"; sec_addr = Layout.code_base;
            sec_data = Buffer.contents text; sec_exec = true; sec_write = false };
          { Binary.sec_name = ".data"; sec_addr = Layout.data_base;
            sec_data = data_bytes; sec_exec = false; sec_write = true } ];
      bin_symbols = symbols; bin_stackmaps = List.rev !maps; bin_tls_size = tls_size;
      bin_tls_init = String.make tls_size '\000'; bin_anchors = anchors }
  in
  { cp_app = app; cp_x86 = build Arch.X86_64 x86_funcs;
    cp_arm = build Arch.Aarch64 arm_funcs }

let binary_for c = function
  | Arch.X86_64 -> c.cp_x86
  | Arch.Aarch64 -> c.cp_arm

let memo : (string, compiled) Hashtbl.t = Hashtbl.create 64

let memoized ~app build =
  match Hashtbl.find_opt memo app with
  | Some c -> c
  | None ->
    let c = compile ~app (build ()) in
    Hashtbl.replace memo app c;
    c

let compile_with_inline_runtime ?(opts = Opts.default) ~app ~runtime_ir (m : Ir.modul) =
  let prefix = "__popcorn_" in
  let funcs = List.map (fun (f : Ir.func) -> f.Ir.fname) runtime_ir.Ir.m_funcs in
  let globals = List.map (fun (g : Ir.global) -> g.Ir.g_name) runtime_ir.Ir.m_globals in
  let rename names n = if List.mem n names then prefix ^ n else n in
  let rename_value = function
    | Ir.Func_addr f -> Ir.Func_addr (rename funcs f)
    | Ir.Global_addr g -> Ir.Global_addr (rename globals g)
    | (Ir.Vreg _ | Ir.Imm _ | Ir.Fimm _) as v -> v
  in
  let rename_instr = function
    | Ir.Call (d, Ir.Direct f, args) ->
      Ir.Call (d, Ir.Direct (rename funcs f), List.map rename_value args)
    | Ir.Call (d, Ir.Indirect v, args) ->
      Ir.Call (d, Ir.Indirect (rename_value v), List.map rename_value args)
    | Ir.Binop (op, d, a, b) -> Ir.Binop (op, d, rename_value a, rename_value b)
    | Ir.Unop (op, d, a) -> Ir.Unop (op, d, rename_value a)
    | Ir.Load (d, a) -> Ir.Load (d, rename_value a)
    | Ir.Store (v, a) -> Ir.Store (rename_value v, rename_value a)
    | Ir.Load8 (d, a) -> Ir.Load8 (d, rename_value a)
    | Ir.Store8 (v, a) -> Ir.Store8 (rename_value v, rename_value a)
    | Ir.Slot_store (v, s) -> Ir.Slot_store (rename_value v, s)
    | (Ir.Slot_addr _ | Ir.Slot_load _ | Ir.Tls_addr _) as i -> i
  in
  let rename_term = function
    | Ir.Ret v -> Ir.Ret (Option.map rename_value v)
    | Ir.Cbr (c, l1, l2) -> Ir.Cbr (rename_value c, l1, l2)
    | Ir.Br _ as t -> t
  in
  let renamed_funcs =
    List.filter_map
      (fun (f : Ir.func) ->
        if f.fname = "main" then None
        else
          Some
            { f with
              Ir.fname = rename funcs f.fname;
              fblocks =
                Array.map
                  (fun (b : Ir.block) ->
                    { b with
                      Ir.instrs = List.map rename_instr b.instrs;
                      term = rename_term b.term })
                  f.fblocks })
      runtime_ir.Ir.m_funcs
  in
  let merged =
    { m with
      Ir.m_funcs = m.Ir.m_funcs @ renamed_funcs;
      m_globals =
        m.Ir.m_globals
        @ List.map
            (fun (g : Ir.global) -> { g with Ir.g_name = prefix ^ g.g_name })
            runtime_ir.Ir.m_globals;
      m_tls = m.Ir.m_tls }
  in
  compile ~opts ~app merged
