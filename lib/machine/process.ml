open Dapper_isa
open Dapper_binary
module Bytebuf = Dapper_util.Bytebuf

type thread_status =
  | Runnable
  | Blocked_join of int
  | Blocked_lock of int64
  | Trapped
  | Stopped
  | Exited of int64

type regfile = bytes

type thread = {
  tid : int;
  regfile : regfile;
  mutable tls : int64;
  mutable status : thread_status;
}

type crash = { cr_tid : int; cr_pc : int64; cr_reason : string }

type nondet = {
  nd_syscall : tid:int -> sys:string -> int64 -> int64;
  nd_sched : tid:int -> steps:int -> unit;
}

type t = {
  arch : Arch.t;
  mem : Memory.t;
  binary : Binary.t;
  mutable threads : thread list;
  mutable next_tid : int;
  mutable brk : int64;
  stdout_buf : Buffer.t;
  mutable exit_code : int64 option;
  mutable crash : crash option;
  mutable total_instrs : int64;
  mutable nondet : nondet option;
  decode_cache : (int64, Minstr.t * int) Hashtbl.t;
  fetch_pcs : int array;
  fetch_ops : (Minstr.t * int) array;
}

exception Exec_error of string

let ( +% ) = Int64.add
let ( -% ) = Int64.sub

(* ----- the register file -----

   A thread's registers and pc live unboxed in one [Bytes]: register [r]
   (its DWARF number) at byte [8r], the pc in the slot after the last
   register. The pc keeps all 64 bits. Inside the interpreter register
   numbers come from [Encoding.decode], which accepts only 0-31, so the
   unchecked accesses stay in bounds. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let reg_count = 33
let pc_off = 8 * reg_count

let[@inline] rd rf r = get64u rf (r lsl 3)
let[@inline] wr rf r v = set64u rf (r lsl 3) v

let check_reg r =
  if r < 0 || r >= reg_count then invalid_arg "Process: register out of range"

let reg th r = check_reg r; rd th.regfile r
let set_reg th r v = check_reg r; wr th.regfile r v
let pc th = get64u th.regfile pc_off
let set_pc th v = set64u th.regfile pc_off v
let regs_array th = Array.init reg_count (rd th.regfile)

let new_thread ~tid ~pc ~tls =
  let th = { tid; regfile = Bytes.make (pc_off + 8) '\000'; tls; status = Runnable } in
  set_pc th pc;
  th

let restored_thread ~tid ~regs ~pc ~tls =
  if Array.length regs <> reg_count then
    invalid_arg "Process.restored_thread: wrong register count";
  let th = new_thread ~tid ~pc ~tls in
  Array.iteri (wr th.regfile) regs;
  th

(* ----- demand paging: owed pages, code from the binary, stack growth ----- *)

(* The heap ends where the lowest thread stack region begins. *)
let heap_end = Layout.stack_limit_of_thread (Layout.max_threads - 1)

(* A page the migration source still owes is [owed]'s answer, whatever
   it is; any other page faults in as code from the binary's text, or
   as a fresh stack page. *)
let install_paging mem (binary : Binary.t) ~owed =
  let handler pn =
    match owed pn with
    | Some page -> page
    | None ->
      let addr = Layout.addr_of_page pn in
      if Int64.compare addr Layout.code_base >= 0 && Int64.compare addr Layout.data_base < 0
      then (
        match Binary.text_page binary pn with
        | Some _ as page -> page
        | None -> Some (Bytes.make Layout.page_size '\000'))
      else if Layout.in_stack_region addr then
        (* stacks grow on demand; untouched pages never enter a dump *)
        Some (Bytes.make Layout.page_size '\000')
      else None
  in
  Memory.set_fault_handler mem (Some handler)

(* ----- loading ----- *)

let map_section mem (s : Binary.section) =
  let len = String.length s.sec_data in
  let first = Layout.page_of_addr s.sec_addr in
  let last = Layout.page_of_addr (s.sec_addr +% Int64.of_int (max 0 (len - 1))) in
  for pn = first to last do
    if not (Memory.is_mapped mem pn) then
      Memory.map_page mem pn (Bytes.make Layout.page_size '\000')
  done;
  Memory.write_bytes mem s.sec_addr s.sec_data

let map_zero_range mem addr len =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr +% Int64.of_int (max 0 (len - 1))) in
  for pn = first to last do
    if not (Memory.is_mapped mem pn) then
      Memory.map_page mem pn (Bytes.make Layout.page_size '\000')
  done

let setup_tls t tid =
  let block = Layout.tls_block_of_thread tid in
  map_zero_range t.mem block t.binary.bin_tls_size;
  Memory.write_bytes t.mem block t.binary.bin_tls_init;
  block +% Int64.of_int (Arch.tls_offset t.arch)

(* A fresh thread's stack: sp starts a redzone below the region top, and
   the bottom-of-stack return target is the given exit stub. On x86 the
   stub address is pushed; on aarch64 it is placed in the link register. *)
let setup_stack t tid ~stub =
  let base = Layout.stack_base_of_thread tid in
  (* map only the hot top; deeper pages fault in on demand *)
  map_zero_range t.mem (base -% Int64.of_int (8 * Layout.page_size)) (8 * Layout.page_size);
  let sp = base -% 64L in
  match t.arch with
  | Arch.X86_64 ->
    let sp = sp -% 8L in
    Memory.write_u64 t.mem sp stub;
    sp
  | Arch.Aarch64 -> sp

let make_thread t ~tid ~pc ~stub =
  let th = new_thread ~tid ~pc ~tls:0L in
  let sp = setup_stack t tid ~stub in
  set_reg th (Arch.sp t.arch) sp;
  (match Arch.link_reg t.arch with
   | Some lr -> set_reg th lr stub
   | None -> ());
  th.tls <- setup_tls t tid;
  th

(* The decode table in front of [decode_cache]: [fetch_slots] slots,
   indexed by pc / [Encoding.alignment], so aarch64's 8-byte-aligned pcs
   use every slot. Slot [s] holds the pc [fetch_pcs.(s)] and its entry in
   [decode_cache]. Only pcs in [0, 2^62), which an [int] holds exactly,
   enter the table, so the empty tag -1 never matches. *)
let fetch_slots = 2048

let create binary mem ~threads ~next_tid ~brk =
  { arch = binary.Binary.bin_arch; mem; binary; threads; next_tid; brk;
    stdout_buf = Buffer.create 256; exit_code = None; crash = None;
    total_instrs = 0L; nondet = None; decode_cache = Hashtbl.create 256;
    fetch_pcs = Array.make fetch_slots (-1);
    fetch_ops = Array.make fetch_slots (Minstr.Nop, 0) }

let load binary =
  let mem = Memory.create () in
  let t = create binary mem ~threads:[] ~next_tid:0 ~brk:Layout.heap_base in
  List.iter
    (fun (s : Binary.section) -> if not s.sec_exec then map_section mem s)
    binary.bin_sections;
  install_paging mem binary ~owed:(fun _ -> None);
  let main = make_thread t ~tid:0 ~pc:binary.bin_anchors.a_entry
      ~stub:binary.bin_anchors.a_exit_stub in
  t.threads <- [ main ];
  t.next_tid <- 1;
  t

let reconstruct binary mem ~owed ~threads ~brk =
  install_paging mem binary ~owed;
  let next_tid = 1 + List.fold_left (fun m th -> max m th.tid) 0 threads in
  create binary mem ~threads ~next_tid ~brk

(* ----- helpers ----- *)

let stdout_contents t = Buffer.contents t.stdout_buf

let thread t tid =
  match List.find_opt (fun th -> th.tid = tid) t.threads with
  | Some th -> th
  | None -> raise (Exec_error (Printf.sprintf "no thread %d" tid))

let live_threads t =
  List.filter (fun th -> match th.status with Exited _ -> false | _ -> true) t.threads

let all_quiescent t =
  List.for_all
    (fun th ->
      match th.status with
      | Trapped | Blocked_join _ | Blocked_lock _ | Stopped | Exited _ -> true
      | Runnable -> false)
    t.threads

type vma_kind = Vma_code | Vma_data | Vma_tls | Vma_heap | Vma_stack of int

let vma_kind_of_page t pn =
  if not (Memory.is_mapped t.mem pn) then None
  else
    let addr = Layout.addr_of_page pn in
    let within lo hi = Int64.compare addr lo >= 0 && Int64.compare addr hi < 0 in
    if within Layout.code_base Layout.data_base then Some Vma_code
    else if within Layout.data_base Layout.tls_base then Some Vma_data
    else if within Layout.tls_base Layout.heap_base then Some Vma_tls
    else if within Layout.heap_base heap_end then Some Vma_heap
    else if Int64.compare addr Layout.stack_top < 0 then begin
      let off = Int64.to_int (Layout.stack_top -% addr) in
      Some (Vma_stack ((off - 1) / Layout.stack_region))
    end
    else None

(* ----- read-only observable-state snapshot ----- *)

type snapshot = {
  sn_data : int64;
  sn_heap : int64;
  sn_tls : int64;
  sn_brk : int64;
  sn_threads : int;
  sn_stdout : string;
  sn_exit : int64 option;
}

(* FNV-1a (64-bit), folded over (page number, page bytes) pairs so the
   digest is sensitive to which pages are mapped, not just their
   concatenated contents. *)
let fnv_int h n =
  let rec go h i =
    if i = 8 then h
    else go (Bytebuf.fnv64_mix h (Int64.of_int ((n lsr (i * 8)) land 0xff))) (i + 1)
  in
  go h 0

(* The pages [observe] reads, in page order, each with its kind and its
   bytes as [observe] reads them. Only data, heap and TLS pages count:
   code and stack bytes are ISA-specific. [page_contents] never consults
   the fault handler, so observing a process does not fault pages in or
   perturb fault accounting. The transformation flag is runtime-monitor
   state, not program state: it is raised on the source during a pause
   and dropped again by restore, so on the flag's page the 8 bytes at
   the flag (clamped to the page) read as zeros, on a copy. *)
let observed_pages t =
  let flag = t.binary.Binary.bin_anchors.Binary.a_flag in
  let flag_page = Layout.page_of_addr flag in
  let flag_off = Layout.page_offset flag in
  let masked pn page =
    if pn <> flag_page then page
    else begin
      let n = Bytes.length page in
      let lo = min flag_off n in
      let copy = Bytes.copy page in
      Bytes.fill copy lo (min (flag_off + 8) n - lo) '\000';
      copy
    end
  in
  Array.fold_right
    (fun pn acc ->
      match vma_kind_of_page t pn with
      | Some ((Vma_data | Vma_heap | Vma_tls) as kind) ->
        (match Memory.page_contents t.mem pn with
         | Some page -> (kind, pn, masked pn page) :: acc
         | None -> acc)
      | Some Vma_code | Some (Vma_stack _) | None -> acc)
    (Memory.page_numbers t.mem) []

(* One page's digest continued from [h]: its page number, then its
   bytes on the shared kernel. *)
let digest_page h pn page =
  (* the page is not mutated during the call and the alias does not escape *)
  Bytebuf.fnv64_fold (fnv_int h pn) (Bytes.unsafe_to_string page)

let observe t =
  let data = ref Bytebuf.fnv64_offset
  and heap = ref Bytebuf.fnv64_offset
  and tls = ref Bytebuf.fnv64_offset in
  List.iter
    (fun (kind, pn, page) ->
      let acc = match kind with Vma_data -> data | Vma_heap -> heap | _ -> tls in
      acc := digest_page !acc pn page)
    (observed_pages t);
  { sn_data = !data;
    sn_heap = !heap;
    sn_tls = !tls;
    sn_brk = t.brk;
    sn_threads = List.length (live_threads t);
    sn_stdout = Buffer.contents t.stdout_buf;
    sn_exit = t.exit_code }

(* Per-page digests of the same pages [observe] folds, each from a fresh
   offset basis — the localization companion to [observe]: when two
   snapshots differ, diffing the two page lists names the diverging
   pages. *)
let observe_pages t =
  List.map
    (fun (kind, pn, page) -> (kind, pn, digest_page Bytebuf.fnv64_offset pn page))
    (observed_pages t)

(* What [state_equal] of the two [observe]s checks, with the pages
   compared by number and bytes instead of through digests. *)
let same_state a b =
  Int64.equal a.brk b.brk
  && List.length (live_threads a) = List.length (live_threads b)
  && List.equal
       (fun (_, pa, x) (_, pb, y) -> pa = pb && Bytes.equal x y)
       (observed_pages a) (observed_pages b)

let state_equal a b =
  Int64.equal a.sn_data b.sn_data
  && Int64.equal a.sn_heap b.sn_heap
  && Int64.equal a.sn_tls b.sn_tls
  && Int64.equal a.sn_brk b.sn_brk
  && a.sn_threads = b.sn_threads

let snapshot_to_string s =
  Printf.sprintf
    "data=%016Lx heap=%016Lx tls=%016Lx brk=0x%Lx threads=%d stdout=%dB exit=%s"
    s.sn_data s.sn_heap s.sn_tls s.sn_brk s.sn_threads
    (String.length s.sn_stdout)
    (match s.sn_exit with None -> "-" | Some c -> Int64.to_string c)

(* ----- ptrace-like interface ----- *)

let peek_data t addr = Memory.read_u64 t.mem addr
let poke_data t addr v = Memory.write_u64 t.mem addr v

(* ----- interpreter ----- *)

(* The only place a pc is decoded. *)
let decode t pc =
  match Hashtbl.find_opt t.decode_cache pc with
  | Some r -> r
  | None ->
    let window = Memory.read_bytes t.mem pc 16 in
    (match Encoding.decode t.arch window 0 with
     | Some (i, sz) ->
       let r = (i, sz) in
       Hashtbl.replace t.decode_cache pc r;
       r
     | None -> raise (Exec_error (Printf.sprintf "undecodable instruction at 0x%Lx" pc)))

(* log2 of [Encoding.alignment]. *)
let align_bits = function Arch.X86_64 -> 0 | Arch.Aarch64 -> 3

let fetch t (th : thread) =
  let pc = pc th in
  let ipc = Int64.to_int pc in
  let slot = (ipc lsr align_bits t.arch) land (fetch_slots - 1) in
  let in_table = Int64.shift_right_logical pc 62 = 0L in
  if Array.unsafe_get t.fetch_pcs slot = ipc && in_table then
    Array.unsafe_get t.fetch_ops slot
  else begin
    let r = decode t pc in
    if in_table then begin
      t.fetch_pcs.(slot) <- ipc;
      t.fetch_ops.(slot) <- r
    end;
    r
  end

(* Executes a syscall for [th]. Returns [true] if the pc should advance
   (non-blocking path) or [false] if the thread blocked (pc stays on the
   syscall so it retries when rescheduled). *)
let exec_syscall t (th : thread) num =
  let arg i = reg th (List.nth (Arch.arg_regs t.arch) i) in
  (* Completed syscall results flow through the nondet tap: a recorder
     logs the value unchanged, a replayer validates it (or substitutes
     it, for the genuinely nondeterministic clock). Blocked paths never
     reach the tap — the retry that eventually completes does. *)
  let tap sys v =
    match t.nondet with None -> v | Some h -> h.nd_syscall ~tid:th.tid ~sys v
  in
  let ret sys v = set_reg th (Arch.ret_reg t.arch) (tap sys v) in
  match Arch.syscall_of_number t.arch num with
  | None -> raise (Exec_error (Printf.sprintf "unknown syscall %d" num))
  | Some `Exit ->
    let code = arg 0 in
    (* record-only: the exit code is program state, never substituted *)
    ignore (tap "exit" code);
    if th.tid = 0 then begin
      t.exit_code <- Some code;
      List.iter (fun o -> o.status <- Exited code) t.threads
    end
    else th.status <- Exited code;
    true
  | Some `Write ->
    let addr = arg 1 and len = Int64.to_int (arg 2) in
    if len < 0 then raise (Exec_error (Printf.sprintf "write of negative length %d" len));
    Memory.add_to_buffer t.stdout_buf t.mem addr len;
    ret "write" (Int64.of_int len);
    true
  | Some `Sbrk ->
    let delta = Int64.to_int (arg 0) in
    let old = t.brk in
    let brk = old +% Int64.of_int (max 0 delta) in
    if Int64.compare brk heap_end > 0 then ret "sbrk" (-1L)
    else begin
      if delta > 0 then begin
        map_zero_range t.mem old delta;
        t.brk <- brk
      end;
      ret "sbrk" old
    end;
    true
  | Some `Spawn ->
    let fn = arg 0 and a0 = arg 1 in
    if t.next_tid >= Layout.max_threads then begin
      ret "spawn" (-1L);
      true
    end
    else begin
      let tid = t.next_tid in
      t.next_tid <- tid + 1;
      let child = make_thread t ~tid ~pc:fn ~stub:t.binary.bin_anchors.a_thread_exit_stub in
      set_reg child (List.hd (Arch.arg_regs t.arch)) a0;
      t.threads <- t.threads @ [ child ];
      ret "spawn" (Int64.of_int tid);
      true
    end
  | Some `Join ->
    let target = Int64.to_int (arg 0) in
    (match List.find_opt (fun o -> o.tid = target) t.threads with
     | Some { status = Exited v; _ } ->
       ret "join" v;
       true
     | Some _ ->
       th.status <- Blocked_join target;
       false
     | None ->
       ret "join" (-1L);
       true)
  | Some `Mutex_lock ->
    let addr = arg 0 in
    if Int64.equal (Memory.read_u64 t.mem addr) 0L then begin
      Memory.write_u64 t.mem addr (Int64.of_int (th.tid + 1));
      ret "lock" 0L;
      true
    end
    else begin
      th.status <- Blocked_lock addr;
      false
    end
  | Some `Mutex_unlock ->
    Memory.write_u64 t.mem (arg 0) 0L;
    ret "unlock" 0L;
    true
  | Some `Clock ->
    ret "clock" t.total_instrs;
    true
  | Some `Yield ->
    ret "yield" 0L;
    true

(* ----- loads and stores -----

   An access whose address is in [0, 2^62) (an [int] holds it exactly),
   that fits in one page and whose page is in [Memory]'s page cache reads
   or writes the page bytes here, little-endian as [Memory] does. Every
   other access takes [Memory.read_*]/[write_*], so faults, [Segfault]
   addresses and dirty marking stay [Memory]'s. [Memory]'s functions are
   compiled in another unit and never inlined here, so an [int64] passed
   to or returned from one is boxed: the cache lookups take and return
   only an [int] and the page bytes. *)

let page_bits = 12
let page_mask = (1 lsl page_bits) - 1
let () = assert (Layout.page_size = 1 lsl page_bits)

let[@inline] le64 v = if big_endian () then bswap64 v else v

(* The cached page holding [addr], for an access of [width] bytes, or
   [Bytes.empty]. *)
let[@inline] hit_page lookup mem addr width =
  let a = Int64.to_int addr in
  if Int64.shift_right_logical addr 62 = 0L && a land page_mask <= page_mask + 1 - width
  then lookup mem (a lsr page_bits)
  else Bytes.empty

(* Loads into byte [dst] of a register file. Each branch stores its own
   value: a value chosen between the fast and the slow path would be
   boxed. *)
let[@inline] load64 t rf dst addr =
  let page = hit_page Memory.cached_page t.mem addr 8 in
  if Bytes.length page <> 0 then
    set64u rf dst (le64 (get64u page (Int64.to_int addr land page_mask)))
  else set64u rf dst (Memory.read_u64 t.mem addr)

let[@inline] store64 t addr v =
  let page = hit_page Memory.cached_page_for_write t.mem addr 8 in
  if Bytes.length page <> 0 then set64u page (Int64.to_int addr land page_mask) (le64 v)
  else Memory.write_u64 t.mem addr v

let[@inline] load8 t addr =
  let page = hit_page Memory.cached_page t.mem addr 1 in
  if Bytes.length page <> 0 then
    Char.code (Bytes.unsafe_get page (Int64.to_int addr land page_mask))
  else Memory.read_u8 t.mem addr

let[@inline] store8 t addr v =
  let page = hit_page Memory.cached_page_for_write t.mem addr 1 in
  if Bytes.length page <> 0 then
    Bytes.unsafe_set page (Int64.to_int addr land page_mask) (Char.unsafe_chr v)
  else Memory.write_u8 t.mem addr v

(* ----- arithmetic -----

   Each operation computes its result in its own arm and stores it
   unboxed into register [d]. *)

let[@inline] binop rf (op : Minstr.binop) d (a : int64) (b : int64) =
  match op with
  | Add -> wr rf d (Int64.add a b)
  | Sub -> wr rf d (Int64.sub a b)
  | Mul -> wr rf d (Int64.mul a b)
  | Div -> if b = 0L then raise (Exec_error "division by zero") else wr rf d (Int64.div a b)
  | Rem -> if b = 0L then raise (Exec_error "division by zero") else wr rf d (Int64.rem a b)
  | And -> wr rf d (Int64.logand a b)
  | Or -> wr rf d (Int64.logor a b)
  | Xor -> wr rf d (Int64.logxor a b)
  | Shl -> wr rf d (Int64.shift_left a (Int64.to_int b land 63))
  | Shr -> wr rf d (Int64.shift_right_logical a (Int64.to_int b land 63))
  | Sar -> wr rf d (Int64.shift_right a (Int64.to_int b land 63))
  | Fadd -> wr rf d (Int64.bits_of_float (Int64.float_of_bits a +. Int64.float_of_bits b))
  | Fsub -> wr rf d (Int64.bits_of_float (Int64.float_of_bits a -. Int64.float_of_bits b))
  | Fmul -> wr rf d (Int64.bits_of_float (Int64.float_of_bits a *. Int64.float_of_bits b))
  | Fdiv -> wr rf d (Int64.bits_of_float (Int64.float_of_bits a /. Int64.float_of_bits b))
  | Cmpeq -> wr rf d (if a = b then 1L else 0L)
  | Cmpne -> wr rf d (if a <> b then 1L else 0L)
  | Cmplt -> wr rf d (if a < b then 1L else 0L)
  | Cmple -> wr rf d (if a <= b then 1L else 0L)
  | Cmpgt -> wr rf d (if a > b then 1L else 0L)
  | Cmpge -> wr rf d (if a >= b then 1L else 0L)
  | Cmpult ->
    wr rf d (if Int64.sub a Int64.min_int < Int64.sub b Int64.min_int then 1L else 0L)
  | Fcmpeq ->
    let eq = Float.compare (Int64.float_of_bits a) (Int64.float_of_bits b) = 0 in
    wr rf d (if eq then 1L else 0L)
  | Fcmplt -> wr rf d (if Int64.float_of_bits a < Int64.float_of_bits b then 1L else 0L)
  | Fcmple -> wr rf d (if Int64.float_of_bits a <= Int64.float_of_bits b then 1L else 0L)

let[@inline] unop rf (op : Minstr.unop) d (a : int64) =
  match op with
  | Neg -> wr rf d (Int64.neg a)
  | Not -> wr rf d (Int64.lognot a)
  | Fneg -> wr rf d (Int64.bits_of_float (-.Int64.float_of_bits a))
  | Sitofp -> wr rf d (Int64.bits_of_float (Int64.to_float a))
  | Fptosi -> wr rf d (Int64.of_float (Int64.float_of_bits a))
  | Fsqrt -> wr rf d (Int64.bits_of_float (Float.sqrt (Int64.float_of_bits a)))

(* A call's return address: pushed on x86, in the link register on
   aarch64. *)
let[@inline] link t rf ret =
  match t.arch with
  | Arch.X86_64 ->
    let sp = Int64.sub (rd rf (Arch.sp t.arch)) 8L in
    wr rf (Arch.sp t.arch) sp;
    store64 t sp ret
  | Arch.Aarch64 -> wr rf 30 ret

(* Executes one fetched instruction of [sz] bytes. *)
let exec t (th : thread) (i : Minstr.t) sz =
  let rf = th.regfile in
  let next = Int64.add (get64u rf pc_off) (Int64.of_int sz) in
  match i with
  | Nop -> set64u rf pc_off next
  | Mov (d, s) -> wr rf d (rd rf s); set64u rf pc_off next
  | Movi (d, v) -> wr rf d v; set64u rf pc_off next
  | Movk (d, v) ->
    wr rf d (Int64.logor (Int64.logand (rd rf d) 0xFFFFFFFFL) (Int64.shift_left v 32));
    set64u rf pc_off next
  | Binop (op, d, a, b) -> binop rf op d (rd rf a) (rd rf b); set64u rf pc_off next
  | Binopi (op, d, a, v) -> binop rf op d (rd rf a) v; set64u rf pc_off next
  | Unop (op, d, a) -> unop rf op d (rd rf a); set64u rf pc_off next
  | Load (d, base, off) ->
    load64 t rf (d lsl 3) (Int64.add (rd rf base) (Int64.of_int off));
    set64u rf pc_off next
  | Store (s, base, off) ->
    store64 t (Int64.add (rd rf base) (Int64.of_int off)) (rd rf s);
    set64u rf pc_off next
  | Load8 (d, base, off) ->
    wr rf d (Int64.of_int (load8 t (Int64.add (rd rf base) (Int64.of_int off))));
    set64u rf pc_off next
  | Store8 (s, base, off) ->
    store8 t (Int64.add (rd rf base) (Int64.of_int off)) (Int64.to_int (rd rf s) land 0xFF);
    set64u rf pc_off next
  | Load_pair (d1, d2, base, off) ->
    let b = rd rf base in
    load64 t rf (d1 lsl 3) (Int64.add b (Int64.of_int off));
    load64 t rf (d2 lsl 3) (Int64.add b (Int64.of_int (off + 8)));
    set64u rf pc_off next
  | Store_pair (s1, s2, base, off) ->
    let b = rd rf base in
    store64 t (Int64.add b (Int64.of_int off)) (rd rf s1);
    store64 t (Int64.add b (Int64.of_int (off + 8))) (rd rf s2);
    set64u rf pc_off next
  | Tls_get d -> wr rf d th.tls; set64u rf pc_off next
  | Call target -> link t rf next; set64u rf pc_off target
  | Call_reg s ->
    let target = rd rf s in
    link t rf next;
    set64u rf pc_off target
  | Ret ->
    (match t.arch with
     | Arch.X86_64 ->
       let sp = rd rf (Arch.sp t.arch) in
       load64 t rf pc_off sp;
       wr rf (Arch.sp t.arch) (Int64.add sp 8L)
     | Arch.Aarch64 -> set64u rf pc_off (rd rf 30))
  | Jmp target -> set64u rf pc_off target
  | Jz (c, target) -> set64u rf pc_off (if rd rf c = 0L then target else next)
  | Jnz (c, target) -> set64u rf pc_off (if rd rf c = 0L then next else target)
  | Adjust_sp d ->
    wr rf (Arch.sp t.arch) (Int64.add (rd rf (Arch.sp t.arch)) (Int64.of_int d));
    set64u rf pc_off next
  | Trap ->
    th.status <- Trapped;
    set64u rf pc_off next
  | Syscall num -> if exec_syscall t th num then set64u rf pc_off next

(* An instruction counts once it has been fetched: one that faults is
   counted, one that cannot be fetched is not. *)
let step_thread t (th : thread) =
  let (i, sz) = fetch t th in
  t.total_instrs <- Int64.succ t.total_instrs;
  exec t th i sz

type run_result =
  | Progress
  | Idle
  | Exited_run of int64
  | Crashed of crash

let quantum = 64

(* Retry a blocked thread's condition; promotes back to Runnable when the
   blocking syscall would now succeed (the syscall re-executes). *)
let poll_blocked t (th : thread) =
  match th.status with
  | Blocked_join target ->
    (match List.find_opt (fun o -> o.tid = target) t.threads with
     | Some { status = Exited _; _ } | None -> th.status <- Runnable
     | Some _ -> ())
  | Blocked_lock addr ->
    if Int64.equal (Memory.read_u64 t.mem addr) 0L then th.status <- Runnable
  | Runnable | Trapped | Stopped | Exited _ -> ()

let is_runnable th = match th.status with Runnable -> true | _ -> false

(* A slice counts its instructions in a local [int] and adds them to
   [total_instrs] at its end, before a syscall executes (clock and the
   nondet tap read the count) and before an exception leaves it. *)
let run t ~max_instrs =
  let budget = ref max_instrs in
  let result = ref None in
  while !result = None && !budget > 0 do
    let progressed = ref false in
    let threads = t.threads in
    List.iter
      (fun th ->
        if !result = None then begin
          poll_blocked t th;
          if is_runnable th then begin
            let slice = min quantum !budget in
            let base = t.total_instrs in
            let n = ref 0 in
            let fault =
              match
                while !n < slice && is_runnable th && Option.is_none t.exit_code do
                  let (i, sz) = fetch t th in
                  incr n;
                  (match i with
                   | Syscall _ -> t.total_instrs <- base +% Int64.of_int !n
                   | _ -> ());
                  exec t th i sz
                done
              with
              | () -> None
              | exception Memory.Segfault addr -> Some (Printf.sprintf "segfault at 0x%Lx" addr)
              | exception Exec_error msg -> Some msg
              | exception e ->
                t.total_instrs <- base +% Int64.of_int !n;
                raise e
            in
            t.total_instrs <- base +% Int64.of_int !n;
            (match fault with
             | None ->
               (* scheduler decision: this thread retired !n instructions
                  before the round-robin moved on — the interleaving a
                  same-ISA replay must reproduce *)
               (match t.nondet with
                | Some h when !n > 0 -> h.nd_sched ~tid:th.tid ~steps:!n
                | _ -> ());
               if !n > 0 then progressed := true;
               budget := !budget - !n
             | Some reason ->
               let c = { cr_tid = th.tid; cr_pc = pc th; cr_reason = reason } in
               t.crash <- Some c;
               result := Some (Crashed c));
            match t.exit_code with
            | Some code -> result := Some (Exited_run code)
            | None -> ()
          end
        end)
      threads;
    match !result with
    | Some _ -> ()
    | None -> if not !progressed then result := Some Idle
  done;
  match !result with
  | Some r -> r
  | None -> Progress

let run_to_completion t ~fuel =
  let remaining = ref fuel in
  let result = ref Progress in
  let continue = ref true in
  while !continue && !remaining > 0 do
    let chunk = min 1_000_000 !remaining in
    remaining := !remaining - chunk;
    match run t ~max_instrs:chunk with
    | Progress -> result := Progress
    | (Idle | Exited_run _ | Crashed _) as r ->
      result := r;
      continue := false
  done;
  !result
