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

(* A translated basic block: one closure per instruction, and the
   instructions' pcs, unboxed, pc [k] at byte [8k] of [pcs]. *)
type block = {
  ops : (thread -> unit) array;
  pcs : bytes;
  ends_in_syscall : bool;
}

(* Where a decoded pc's instruction sits: op [index] of [block]. *)
type entry = { block : block; index : int }

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
  decode_cache : (int, entry) Hashtbl.t;
  entry_pcs : int array;
  entries : entry array;
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
   as a fresh stack page. Memory never writes the handler's bytes, so an
   owed page is served as the string it is. *)
let install_paging mem (binary : Binary.t) ~owed =
  let handler pn =
    match owed pn with
    | Some page -> Option.map Bytes.unsafe_of_string page
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

(* The entry table in front of [decode_cache]: [entry_slots] slots, slot
   [s] holding the pc [entry_pcs.(s)] and its [decode_cache] entry. Only
   pcs in [0, 2^62), which an [int] holds exactly, enter either, so the
   empty tag -1 never matches. *)
let entry_slots = 2048

let no_entry = { block = { ops = [||]; pcs = Bytes.empty; ends_in_syscall = false }; index = 0 }

let create binary mem ~threads ~next_tid ~brk =
  { arch = binary.Binary.bin_arch; mem; binary; threads; next_tid; brk;
    stdout_buf = Buffer.create 256; exit_code = None; crash = None;
    total_instrs = 0L; nondet = None; decode_cache = Hashtbl.create 256;
    entry_pcs = Array.make entry_slots (-1);
    entries = Array.make entry_slots no_entry }

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

let vma_kind_name = function
  | Vma_code -> "code"
  | Vma_data -> "data"
  | Vma_tls -> "tls"
  | Vma_heap -> "heap"
  | Vma_stack t -> Printf.sprintf "stack:%d" t

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

(* What the data, heap and TLS digests, brk and live-thread count of
   the two [observe]s compare, with the pages compared by number and
   bytes instead of through digests. A page the two processes share is
   the same bytes, so identity answers first. *)
let same_state a b =
  Int64.equal a.brk b.brk
  && List.length (live_threads a) = List.length (live_threads b)
  && List.equal
       (fun (_, pa, x) (_, pb, y) -> pa = pb && (x == y || Bytes.equal x y))
       (observed_pages a) (observed_pages b)

(* ----- ptrace-like interface ----- *)

let peek_data t addr = Memory.read_u64 t.mem addr
let poke_data t addr v = Memory.write_u64 t.mem addr v

(* ----- interpreter: translated basic blocks -----

   The first time a thread reaches a pc, [translate] decodes the
   straight-line run that starts there into a [block]: one closure per
   instruction, chosen by opcode when translating, with its registers,
   immediates and fall-through pc baked in. The run ends at its first
   control transfer: call, indirect call, return, jump, conditional
   branch, trap or syscall. Only the block's last closure writes the pc;
   a runner that stops inside a block writes the next pc itself. *)

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
let[@inline] load64 mem rf dst addr =
  let page = hit_page Memory.cached_page mem addr 8 in
  if Bytes.length page <> 0 then
    set64u rf dst (le64 (get64u page (Int64.to_int addr land page_mask)))
  else set64u rf dst (Memory.read_u64 mem addr)

let[@inline] store64 mem addr v =
  let page = hit_page Memory.cached_page_for_write mem addr 8 in
  if Bytes.length page <> 0 then set64u page (Int64.to_int addr land page_mask) (le64 v)
  else Memory.write_u64 mem addr v

let[@inline] load8 mem addr =
  let page = hit_page Memory.cached_page mem addr 1 in
  if Bytes.length page <> 0 then
    Char.code (Bytes.unsafe_get page (Int64.to_int addr land page_mask))
  else Memory.read_u8 mem addr

let[@inline] store8 mem addr v =
  let page = hit_page Memory.cached_page_for_write mem addr 1 in
  if Bytes.length page <> 0 then
    Bytes.unsafe_set page (Int64.to_int addr land page_mask) (Char.unsafe_chr v)
  else Memory.write_u8 mem addr v

(* ----- one closure per opcode -----

   Each closure computes its result in its own body and stores it
   unboxed into register [d]: the operation is chosen here, once, and a
   closure that took the operation as a function would box its
   operands. *)

let[@inline] bool v = if v then 1L else 0L
let[@inline] fl v = Int64.float_of_bits v
let[@inline] bits x = Int64.bits_of_float x
let[@inline] unsigned v = Int64.sub v Int64.min_int
let[@inline] nonzero b = if b = 0L then raise (Exec_error "division by zero")

(* [d <- a op b]. *)
let binop (op : Minstr.binop) d a b : thread -> unit =
  match op with
  | Add -> fun th -> let rf = th.regfile in wr rf d (Int64.add (rd rf a) (rd rf b))
  | Sub -> fun th -> let rf = th.regfile in wr rf d (Int64.sub (rd rf a) (rd rf b))
  | Mul -> fun th -> let rf = th.regfile in wr rf d (Int64.mul (rd rf a) (rd rf b))
  | Div ->
    fun th -> let rf = th.regfile in
      nonzero (rd rf b); wr rf d (Int64.div (rd rf a) (rd rf b))
  | Rem ->
    fun th -> let rf = th.regfile in
      nonzero (rd rf b); wr rf d (Int64.rem (rd rf a) (rd rf b))
  | And -> fun th -> let rf = th.regfile in wr rf d (Int64.logand (rd rf a) (rd rf b))
  | Or -> fun th -> let rf = th.regfile in wr rf d (Int64.logor (rd rf a) (rd rf b))
  | Xor -> fun th -> let rf = th.regfile in wr rf d (Int64.logxor (rd rf a) (rd rf b))
  | Shl ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_left (rd rf a) (Int64.to_int (rd rf b) land 63))
  | Shr ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_right_logical (rd rf a) (Int64.to_int (rd rf b) land 63))
  | Sar ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_right (rd rf a) (Int64.to_int (rd rf b) land 63))
  | Fadd -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) +. fl (rd rf b)))
  | Fsub -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) -. fl (rd rf b)))
  | Fmul -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) *. fl (rd rf b)))
  | Fdiv -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) /. fl (rd rf b)))
  | Cmpeq -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a = rd rf b))
  | Cmpne -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a <> rd rf b))
  | Cmplt -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a < rd rf b))
  | Cmple -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a <= rd rf b))
  | Cmpgt -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a > rd rf b))
  | Cmpge -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a >= rd rf b))
  | Cmpult ->
    fun th -> let rf = th.regfile in
      wr rf d (bool (unsigned (rd rf a) < unsigned (rd rf b)))
  | Fcmpeq ->
    fun th -> let rf = th.regfile in
      wr rf d (bool (Float.compare (fl (rd rf a)) (fl (rd rf b)) = 0))
  | Fcmplt ->
    fun th -> let rf = th.regfile in wr rf d (bool (fl (rd rf a) < fl (rd rf b)))
  | Fcmple ->
    fun th -> let rf = th.regfile in wr rf d (bool (fl (rd rf a) <= fl (rd rf b)))

(* [d <- a op v], [v] an immediate. *)
let binopi (op : Minstr.binop) d a (v : int64) : thread -> unit =
  match op with
  | Add -> fun th -> let rf = th.regfile in wr rf d (Int64.add (rd rf a) v)
  | Sub -> fun th -> let rf = th.regfile in wr rf d (Int64.sub (rd rf a) v)
  | Mul -> fun th -> let rf = th.regfile in wr rf d (Int64.mul (rd rf a) v)
  | Div -> fun th -> let rf = th.regfile in nonzero v; wr rf d (Int64.div (rd rf a) v)
  | Rem -> fun th -> let rf = th.regfile in nonzero v; wr rf d (Int64.rem (rd rf a) v)
  | And -> fun th -> let rf = th.regfile in wr rf d (Int64.logand (rd rf a) v)
  | Or -> fun th -> let rf = th.regfile in wr rf d (Int64.logor (rd rf a) v)
  | Xor -> fun th -> let rf = th.regfile in wr rf d (Int64.logxor (rd rf a) v)
  | Shl ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_left (rd rf a) (Int64.to_int v land 63))
  | Shr ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_right_logical (rd rf a) (Int64.to_int v land 63))
  | Sar ->
    fun th -> let rf = th.regfile in
      wr rf d (Int64.shift_right (rd rf a) (Int64.to_int v land 63))
  | Fadd -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) +. fl v))
  | Fsub -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) -. fl v))
  | Fmul -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) *. fl v))
  | Fdiv -> fun th -> let rf = th.regfile in wr rf d (bits (fl (rd rf a) /. fl v))
  | Cmpeq -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a = v))
  | Cmpne -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a <> v))
  | Cmplt -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a < v))
  | Cmple -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a <= v))
  | Cmpgt -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a > v))
  | Cmpge -> fun th -> let rf = th.regfile in wr rf d (bool (rd rf a >= v))
  | Cmpult ->
    fun th -> let rf = th.regfile in wr rf d (bool (unsigned (rd rf a) < unsigned v))
  | Fcmpeq ->
    fun th -> let rf = th.regfile in
      wr rf d (bool (Float.compare (fl (rd rf a)) (fl v) = 0))
  | Fcmplt -> fun th -> let rf = th.regfile in wr rf d (bool (fl (rd rf a) < fl v))
  | Fcmple -> fun th -> let rf = th.regfile in wr rf d (bool (fl (rd rf a) <= fl v))

let unop (op : Minstr.unop) d a : thread -> unit =
  match op with
  | Neg -> fun th -> let rf = th.regfile in wr rf d (Int64.neg (rd rf a))
  | Not -> fun th -> let rf = th.regfile in wr rf d (Int64.lognot (rd rf a))
  | Fneg -> fun th -> let rf = th.regfile in wr rf d (bits (-.fl (rd rf a)))
  | Sitofp -> fun th -> let rf = th.regfile in wr rf d (bits (Int64.to_float (rd rf a)))
  | Fptosi -> fun th -> let rf = th.regfile in wr rf d (Int64.of_float (fl (rd rf a)))
  | Fsqrt -> fun th -> let rf = th.regfile in wr rf d (bits (Float.sqrt (fl (rd rf a))))

let ends_block : Minstr.t -> bool = function
  | Call _ | Call_reg _ | Ret | Jmp _ | Jz _ | Jnz _ | Trap | Syscall _ -> true
  | Nop | Mov _ | Movi _ | Movk _ | Binop _ | Binopi _ | Unop _ | Load _ | Store _ | Load8 _
  | Store8 _ | Load_pair _ | Store_pair _ | Tls_get _ | Adjust_sp _ -> false

(* The closure for instruction [i] at [pc], [next] the pc after it. A
   closure that ends a block writes the pc, only after anything that can
   raise; no other closure writes it. *)
let op t (i : Minstr.t) ~pc ~next : thread -> unit =
  let mem = t.mem and sp = Arch.sp t.arch in
  match i with
  | Nop -> fun _ -> ()
  | Mov (d, s) -> fun th -> let rf = th.regfile in wr rf d (rd rf s)
  | Movi (d, v) -> fun th -> wr th.regfile d v
  | Movk (d, v) ->
    let hi = Int64.shift_left v 32 in
    fun th -> let rf = th.regfile in wr rf d (Int64.logor (Int64.logand (rd rf d) 0xFFFFFFFFL) hi)
  | Binop (o, d, a, b) -> binop o d a b
  | Binopi (o, d, a, v) -> binopi o d a v
  | Unop (o, d, a) -> unop o d a
  | Load (d, base, off) ->
    let off = Int64.of_int off in
    fun th -> let rf = th.regfile in load64 mem rf (d lsl 3) (Int64.add (rd rf base) off)
  | Store (s, base, off) ->
    let off = Int64.of_int off in
    fun th -> let rf = th.regfile in store64 mem (Int64.add (rd rf base) off) (rd rf s)
  | Load8 (d, base, off) ->
    let off = Int64.of_int off in
    fun th -> let rf = th.regfile in
      wr rf d (Int64.of_int (load8 mem (Int64.add (rd rf base) off)))
  | Store8 (s, base, off) ->
    let off = Int64.of_int off in
    fun th -> let rf = th.regfile in
      store8 mem (Int64.add (rd rf base) off) (Int64.to_int (rd rf s) land 0xFF)
  | Load_pair (d1, d2, base, off) ->
    let off1 = Int64.of_int off and off2 = Int64.of_int (off + 8) in
    fun th -> let rf = th.regfile in
      let b = rd rf base in
      load64 mem rf (d1 lsl 3) (Int64.add b off1);
      load64 mem rf (d2 lsl 3) (Int64.add b off2)
  | Store_pair (s1, s2, base, off) ->
    let off1 = Int64.of_int off and off2 = Int64.of_int (off + 8) in
    fun th -> let rf = th.regfile in
      let b = rd rf base in
      store64 mem (Int64.add b off1) (rd rf s1);
      store64 mem (Int64.add b off2) (rd rf s2)
  | Tls_get d -> fun th -> wr th.regfile d th.tls
  | Adjust_sp delta ->
    let delta = Int64.of_int delta in
    fun th -> let rf = th.regfile in wr rf sp (Int64.add (rd rf sp) delta)
  | Call target -> (
    (* the return address: pushed on x86, in the link register on aarch64 *)
    match t.arch with
    | Arch.X86_64 ->
      fun th -> let rf = th.regfile in
        let s = Int64.sub (rd rf sp) 8L in
        wr rf sp s;
        store64 mem s next;
        set64u rf pc_off target
    | Arch.Aarch64 -> fun th -> let rf = th.regfile in wr rf 30 next; set64u rf pc_off target)
  | Call_reg r -> (
    match t.arch with
    | Arch.X86_64 ->
      fun th -> let rf = th.regfile in
        let target = rd rf r in
        let s = Int64.sub (rd rf sp) 8L in
        wr rf sp s;
        store64 mem s next;
        set64u rf pc_off target
    | Arch.Aarch64 ->
      fun th -> let rf = th.regfile in
        let target = rd rf r in
        wr rf 30 next;
        set64u rf pc_off target)
  | Ret -> (
    match t.arch with
    | Arch.X86_64 ->
      fun th -> let rf = th.regfile in
        let s = rd rf sp in
        load64 mem rf pc_off s;
        wr rf sp (Int64.add s 8L)
    | Arch.Aarch64 -> fun th -> let rf = th.regfile in set64u rf pc_off (rd rf 30))
  | Jmp target -> fun th -> set64u th.regfile pc_off target
  | Jz (c, target) ->
    fun th -> let rf = th.regfile in set64u rf pc_off (if rd rf c = 0L then target else next)
  | Jnz (c, target) ->
    fun th -> let rf = th.regfile in set64u rf pc_off (if rd rf c = 0L then next else target)
  | Trap ->
    fun th ->
      th.status <- Trapped;
      set64u th.regfile pc_off next
  | Syscall num ->
    (* the pc is the syscall's own while it runs, so one that blocks
       retries when the thread is rescheduled *)
    fun th ->
      set64u th.regfile pc_off pc;
      if exec_syscall t th num then set64u th.regfile pc_off next

(* The pc of op [k] of [b]. *)
let[@inline] pc_at b k = get64u b.pcs (k lsl 3)

(* The window a fetch reads: no instruction is longer. *)
let window = 16

(* log2 of [Encoding.alignment]. *)
let align_bits = function Arch.X86_64 -> 0 | Arch.Aarch64 -> 3

(* Decodes the run that starts at [pc] into a block and returns its
   first entry. The first instruction is decoded as a fetch decodes it,
   from a 16-byte window that may fault a page in or raise. The run then
   continues only while the next instruction's window stays on the first
   instruction's page, which is read in place: translation never faults
   a page in before execution would. It stops before an undecodable
   window and before a pc [decode_cache] already holds, so each pc has
   one entry, whichever block reached it first. A pc at or above 2^62
   gets a block of its own instruction, decoded on every visit and never
   entered in [decode_cache]. *)
let translate t pc =
  let ipc = Int64.to_int pc in
  let off = ipc land page_mask in
  let in_cache = Int64.shift_right_logical pc 62 = 0L in
  let ahead =
    in_cache && ipc land ((1 lsl align_bits t.arch) - 1) = 0 && off + window <= Layout.page_size
  in
  let page = if ahead then Memory.cached_page t.mem (ipc lsr page_bits) else Bytes.empty in
  let first =
    if Bytes.length page <> 0 then Encoding.decode t.arch (Bytes.unsafe_to_string page) off
    else Encoding.decode t.arch (Memory.read_bytes t.mem pc window) 0
  in
  let first =
    match first with
    | Some r -> r
    | None -> raise (Exec_error (Printf.sprintf "undecodable instruction at 0x%Lx" pc))
  in
  (* the window read just cached the page *)
  let page =
    if ahead && Bytes.length page = 0 then Memory.cached_page t.mem (ipc lsr page_bits)
    else page
  in
  let code = Bytes.unsafe_to_string page in
  (* the run's instructions, last first *)
  let rec decode_ahead acc ((i, sz) as r) at =
    let acc = r :: acc and at = at + sz in
    if ends_block i || Bytes.length page = 0 || at + window > Layout.page_size
       || Hashtbl.mem t.decode_cache (ipc - off + at)
    then acc
    else
      match Encoding.decode t.arch code at with
      | Some r -> decode_ahead acc r at
      | None -> acc
  in
  let run = Array.of_list (List.rev (decode_ahead [] first off)) in
  let n = Array.length run in
  let pcs = Bytes.create (8 * n) in
  let at = ref pc in
  let ops =
    Array.mapi
      (fun k (i, sz) ->
        let pc = !at in
        let next = pc +% Int64.of_int sz in
        set64u pcs (8 * k) pc;
        at := next;
        let f = op t i ~pc ~next in
        if k < n - 1 || ends_block i then f
        else fun th -> f th; set64u th.regfile pc_off next)
      run
  in
  let block =
    { ops; pcs; ends_in_syscall = (match fst run.(n - 1) with Syscall _ -> true | _ -> false) }
  in
  let entries = Array.init n (fun index -> { block; index }) in
  (* none of the run's pcs is in [decode_cache] yet *)
  if in_cache then
    Array.iter (fun e -> Hashtbl.add t.decode_cache (Int64.to_int (pc_at block e.index)) e)
      entries;
  entries.(0)

(* The entry table's index mixes in the pc's bits above 2 KiB, so code
   larger than the table does not evict itself. *)
let[@inline] entry_slot t ipc =
  ((ipc lsr align_bits t.arch) lxor (ipc lsr 11)) land (entry_slots - 1)

let entry_miss t rf =
  let pc = get64u rf pc_off in
  if Int64.shift_right_logical pc 62 <> 0L then translate t pc
  else begin
    let ipc = Int64.to_int pc in
    let e =
      match Hashtbl.find_opt t.decode_cache ipc with
      | Some e -> e
      | None -> translate t pc
    in
    let slot = entry_slot t ipc in
    t.entry_pcs.(slot) <- ipc;
    t.entries.(slot) <- e;
    e
  end

(* The entry for the pc in [rf]: from the entry table, then from
   [decode_cache], then by translating. The pc is read here and passed
   on only as an [int]: nothing is boxed on a hit. *)
let[@inline] entry t rf =
  let pc = get64u rf pc_off in
  let ipc = Int64.to_int pc in
  let slot = entry_slot t ipc in
  if Array.unsafe_get t.entry_pcs slot = ipc && Int64.shift_right_logical pc 62 = 0L then
    Array.unsafe_get t.entries slot
  else entry_miss t rf

(* Runs one instruction of [th] through the same entry as [run]. An
   instruction counts once it has been fetched: one that faults is
   counted, one that cannot be fetched is not. *)
let step_thread t (th : thread) =
  let rf = th.regfile in
  let { block = b; index = k } = entry t rf in
  t.total_instrs <- Int64.succ t.total_instrs;
  (Array.unsafe_get b.ops k) th;
  if k + 1 < Array.length b.ops then set64u rf pc_off (pc_at b (k + 1))

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

(* Runs [th] for up to [slice] instructions, a block at a time: from the
   entry's op to the block's end when the slice has room, else to the
   slice's end, and then the runner writes the next op's pc. Only a
   block's last op can change the thread's status or end the process,
   so both are checked between blocks. The slice counts in a local
   [int] and adds the count to [total_instrs] at its end, before a block
   whose last op is a syscall (clock and the nondet tap read the count)
   and before an exception leaves it. An op that raises is counted and
   leaves the pc on its own instruction; a fetch that raises is not
   counted. Returns the count, or raises [Guest_fault] with the reason
   the guest crashed. *)
exception Guest_fault of string

let run_slice t (th : thread) slice =
  let rf = th.regfile in
  let base = t.total_instrs in
  let n = ref 0 in
  (* the block running, the op running (-1 between blocks) and where the
     block stops *)
  let cur = ref no_entry.block and k = ref (-1) and stop = ref 0 in
  match
    while !n < slice && is_runnable th && Option.is_none t.exit_code do
      let { block = b; index } = entry t rf in
      let len = Array.length b.ops in
      let s = if len - index <= slice - !n then len else index + slice - !n in
      n := !n + (s - index);
      if s = len && b.ends_in_syscall then t.total_instrs <- base +% Int64.of_int !n;
      cur := b;
      stop := s;
      k := index;
      while !k < s do
        (Array.unsafe_get b.ops !k) th;
        incr k
      done;
      k := -1;
      if s < len then set64u rf pc_off (pc_at b s)
    done
  with
  | () ->
    t.total_instrs <- base +% Int64.of_int !n;
    !n
  | exception e ->
    if !k >= 0 then begin
      n := !n - (!stop - !k) + 1;
      set64u rf pc_off (pc_at !cur !k)
    end;
    t.total_instrs <- base +% Int64.of_int !n;
    (match e with
     | Memory.Segfault addr -> raise (Guest_fault (Printf.sprintf "segfault at 0x%Lx" addr))
     | Exec_error msg -> raise (Guest_fault msg)
     | e -> raise e)

(* Round-robin passes over the threads, each runnable thread a slice of
   up to [quantum] instructions, until the budget is spent, the process
   exits or crashes, or a whole pass makes no progress. A pass takes the
   thread list as it stands when the pass starts, and polls every
   thread's blocking condition, budget or not. *)
let run t ~max_instrs =
  let rec pass budget progressed = function
    | [] ->
      if not progressed then Idle
      else if budget > 0 then pass budget false t.threads
      else Progress
    | th :: rest -> (
      poll_blocked t th;
      if not (is_runnable th) then pass budget progressed rest
      else
        match run_slice t th (min quantum budget) with
        | exception Guest_fault reason ->
          let c = { cr_tid = th.tid; cr_pc = pc th; cr_reason = reason } in
          t.crash <- Some c;
          Crashed c
        | n -> (
          (* scheduler decision: this thread retired n instructions
             before the round-robin moved on — the interleaving a
             same-ISA replay must reproduce *)
          (match t.nondet with
           | Some h when n > 0 -> h.nd_sched ~tid:th.tid ~steps:n
           | _ -> ());
          match t.exit_code with
          | Some code -> Exited_run code
          | None -> pass (budget - n) (progressed || n > 0) rest))
  in
  if max_instrs > 0 then pass max_instrs false t.threads else Progress

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
