open Dapper_binary

exception Segfault of int64

(* [pages] is the page table. In front of it sits a direct-mapped cache:
   slot [s = slot pn] holds page [cache_pns.(s)], whose bytes are
   [cache_pages.(s)]. Only mapped pages enter the cache, and [map_page]
   clears its page's slot, so a hit always returns the bytes the table
   holds. *)
type t = {
  pages : (int, bytes) Hashtbl.t;
  cache_pns : int array;
  cache_pages : bytes array;
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
    cache_pns = Array.make cache_slots empty_pn;
    cache_pages = Array.make cache_slots Bytes.empty;
    fault_handler = None; faults = 0; dirty = None }

let uncache t pn =
  let s = slot pn in
  if t.cache_pns.(s) = pn then t.cache_pns.(s) <- empty_pn

let set_fault_handler t h = t.fault_handler <- h
let fault_count t = t.faults

(* Dirty-page tracking (pre-copy rounds). One branch per write when
   disabled, so the interpreter hot path is untouched for legacy runs. *)
let track_dirty t on =
  t.dirty <- (if on then Some (Hashtbl.create 64) else None)

let clear_dirty t =
  match t.dirty with None -> () | Some d -> Hashtbl.reset d

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

let mark_dirty t addr =
  match t.dirty with
  | None -> ()
  | Some d -> Hashtbl.replace d (Layout.page_of_addr addr) ()

let map_page t pn data =
  if Bytes.length data <> Layout.page_size then
    invalid_arg "Memory.map_page: wrong page size";
  (match t.dirty with
   | None -> ()
   | Some d -> Hashtbl.replace d pn ());
  uncache t pn;
  Hashtbl.replace t.pages pn data

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
    p
  end

let cached_page t pn =
  let s = slot pn in
  if Array.unsafe_get t.cache_pns s = pn then Array.unsafe_get t.cache_pages s
  else Bytes.empty

(* A write through the page bytes skips [mark_dirty], so while pages are
   tracked every write misses. *)
let cached_page_for_write t pn =
  match t.dirty with None -> cached_page t pn | Some _ -> Bytes.empty

let read_u8 t addr =
  let p = page t addr in
  Char.code (Bytes.get p (Layout.page_offset addr))

let write_u8 t addr v =
  let p = page t addr in
  mark_dirty t addr;
  Bytes.set p (Layout.page_offset addr) (Char.chr (v land 0xFF))

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
  if off + 8 <= Layout.page_size then begin
    let p = page t addr in
    mark_dirty t addr;
    Bytes.set_int64_le p off v
  end
  else
    for i = 0 to 7 do
      write_u8 t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

(* Calls [f page a off pos chunk] for each page-bounded piece of
   [addr, addr + len) in address order: the piece starts at address [a],
   at offset [off] in [page] and [pos] bytes into the range. Each page is
   resolved just before its piece. *)
let iter_range t addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = Layout.page_offset a in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    f (page t a) a off !pos chunk;
    pos := !pos + chunk
  done

let read_bytes t addr len =
  let b = Bytes.create len in
  iter_range t addr len (fun p _ off pos chunk -> Bytes.blit p off b pos chunk);
  Bytes.to_string b

let add_to_buffer buf t addr len =
  iter_range t addr len (fun _ _ _ _ _ -> ());
  iter_range t addr len (fun p _ off _ chunk -> Buffer.add_subbytes buf p off chunk)

let write_bytes t addr s =
  iter_range t addr (String.length s) (fun p a off pos chunk ->
      mark_dirty t a;
      Bytes.blit_string s pos p off chunk)
