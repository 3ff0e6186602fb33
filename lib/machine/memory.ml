open Dapper_binary

exception Segfault of int64

(* [pages] is the page table; [shared] holds the pages whose bytes may
   be held elsewhere, which [writable] copies before a write. In front
   of the table sits a direct-mapped cache: slot [s = slot pn] holds page
   [cache_pns.(s)], whose bytes are [cache_pages.(s)]. Only mapped pages
   enter the cache, and [map] clears its page's slot, so a hit always
   returns the bytes the table holds. The write tag [cache_wpns.(s)] is
   either [empty_pn] or [cache_pns.(s)], the latter only when [writable]
   gave it: the page is not shared and, while tracked, already dirty. *)
type t = {
  pages : (int, bytes) Hashtbl.t;
  shared : (int, unit) Hashtbl.t;
  cache_pns : int array;
  cache_pages : bytes array;
  cache_wpns : int array;
  mutable fault_handler : (int -> bytes option) option;
  mutable faults : int;
  mutable dirty : (int, unit) Hashtbl.t option;
}

let cache_slots = 64

(* The slot mixes in the page number's bits above the slot bits: indexed
   by page number alone, the first pages of code (0x400), data (0x600),
   TLS (0x700) and heap (0x800) would share slot 0, and the top stack
   pages of threads, 64 pages apart, would share one slot too. *)
let[@inline] slot pn = (pn lxor (pn lsr 6)) land (cache_slots - 1)

(* An empty slot holds a page number no address has. *)
let empty_pn = min_int

let create () =
  { pages = Hashtbl.create 256;
    shared = Hashtbl.create 64;
    cache_pns = Array.make cache_slots empty_pn;
    cache_pages = Array.make cache_slots Bytes.empty;
    cache_wpns = Array.make cache_slots empty_pn;
    fault_handler = None; faults = 0; dirty = None }

let uncache t pn =
  let s = slot pn in
  if t.cache_pns.(s) = pn then begin
    t.cache_pns.(s) <- empty_pn;
    t.cache_wpns.(s) <- empty_pn
  end

let revoke_writes t = Array.fill t.cache_wpns 0 cache_slots empty_pn

let set_fault_handler t h = t.fault_handler <- h
let fault_count t = t.faults

(* Dirty-page tracking (pre-copy rounds): with every write tag taken
   back, a page's first write in a round takes [writable], which marks
   it. *)
let track_dirty t on =
  revoke_writes t;
  t.dirty <- (if on then Some (Hashtbl.create 64) else None)

let clear_dirty t =
  match t.dirty with
  | None -> ()
  | Some d ->
    Hashtbl.reset d;
    revoke_writes t

let dirty_pages t =
  match t.dirty with
  | None -> []
  | Some d ->
    let arr = Array.make (Hashtbl.length d) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun pn () ->
        arr.(!i) <- pn;
        incr i)
      d;
    Array.sort Int.compare arr;
    Array.to_list arr

let mark_dirty t pn =
  match t.dirty with None -> () | Some d -> Hashtbl.replace d pn ()

let map t pn data ~shared =
  if Bytes.length data <> Layout.page_size then invalid_arg "Memory: wrong page size";
  mark_dirty t pn;
  uncache t pn;
  if shared then Hashtbl.replace t.shared pn () else Hashtbl.remove t.shared pn;
  Hashtbl.replace t.pages pn data

let map_page t pn data = map t pn data ~shared:false
let map_shared t pn data = map t pn (Bytes.unsafe_of_string data) ~shared:true

let share_page t pn =
  match Hashtbl.find_opt t.pages pn with
  | None -> None
  | Some p ->
    Hashtbl.replace t.shared pn ();
    let s = slot pn in
    if t.cache_wpns.(s) = pn then t.cache_wpns.(s) <- empty_pn;
    Some (Bytes.unsafe_to_string p)

let is_mapped t pn = Hashtbl.mem t.pages pn

let page_numbers t =
  let arr = Array.make (Hashtbl.length t.pages) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun pn _ ->
      arr.(!i) <- pn;
      incr i)
    t.pages;
  Array.sort Int.compare arr;
  arr

let mapped_pages t = Array.to_list (page_numbers t)

let page_contents t pn = Hashtbl.find_opt t.pages pn

(* Resolve a page through the page table, consulting the fault handler
   for unmapped pages. *)
let page_slow t pn addr =
  match Hashtbl.find_opt t.pages pn with
  | Some p -> p
  | None ->
    (match t.fault_handler with
     | Some h ->
       (match h pn with
        | Some data ->
          if Bytes.length data <> Layout.page_size then
            invalid_arg "Memory: fault handler returned wrong page size";
          t.faults <- t.faults + 1;
          Hashtbl.replace t.shared pn ();
          Hashtbl.replace t.pages pn data;
          data
        | None -> raise (Segfault addr))
     | None -> raise (Segfault addr))

let page t addr =
  let pn = Layout.page_of_addr addr in
  let s = slot pn in
  if Array.unsafe_get t.cache_pns s = pn then Array.unsafe_get t.cache_pages s
  else begin
    let p = page_slow t pn addr in
    t.cache_pns.(s) <- pn;
    t.cache_pages.(s) <- p;
    t.cache_wpns.(s) <- empty_pn;
    p
  end

(* The bytes of the page holding [addr], to write in place: a shared
   page is copied into the table first, and the page is marked dirty
   while tracked. The page's slot then holds its write tag. *)
let writable t addr =
  let pn = Layout.page_of_addr addr in
  let s = slot pn in
  if Array.unsafe_get t.cache_wpns s = pn then Array.unsafe_get t.cache_pages s
  else begin
    let p = page t addr in
    let p =
      if not (Hashtbl.mem t.shared pn) then p
      else begin
        let own = Bytes.copy p in
        Hashtbl.remove t.shared pn;
        Hashtbl.replace t.pages pn own;
        t.cache_pages.(s) <- own;
        own
      end
    in
    mark_dirty t pn;
    t.cache_wpns.(s) <- pn;
    p
  end

let cached_page t pn =
  let s = slot pn in
  if Array.unsafe_get t.cache_pns s = pn then Array.unsafe_get t.cache_pages s
  else Bytes.empty

let cached_page_for_write t pn =
  let s = slot pn in
  if Array.unsafe_get t.cache_wpns s = pn then Array.unsafe_get t.cache_pages s
  else Bytes.empty

let read_u8 t addr =
  let p = page t addr in
  Char.code (Bytes.get p (Layout.page_offset addr))

let write_u8 t addr v =
  Bytes.set (writable t addr) (Layout.page_offset addr) (Char.chr (v land 0xFF))

let read_u64 t addr =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then begin
    let p = page t addr in
    Bytes.get_int64_le p off
  end
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int i))))
    done;
    !v
  end

let write_u64 t addr v =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.set_int64_le (writable t addr) off v
  else
    for i = 0 to 7 do
      write_u8 t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

(* Calls [f page off pos chunk] for each page-bounded piece of
   [addr, addr + len) in address order: the piece is at offset [off] in
   [page] and [pos] bytes into the range. Each page is resolved by
   [resolve] ([page] or [writable]) just before its piece. *)
let iter_range resolve t addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = Layout.page_offset a in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    f (resolve t a) off !pos chunk;
    pos := !pos + chunk
  done

let read_bytes t addr len =
  let b = Bytes.create len in
  iter_range page t addr len (fun p off pos chunk -> Bytes.blit p off b pos chunk);
  Bytes.to_string b

let add_to_buffer buf t addr len =
  iter_range page t addr len (fun _ _ _ _ -> ());
  iter_range page t addr len (fun p off _ chunk -> Buffer.add_subbytes buf p off chunk)

let write_bytes t addr s =
  iter_range writable t addr (String.length s) (fun p off pos chunk ->
      Bytes.blit_string s pos p off chunk)
