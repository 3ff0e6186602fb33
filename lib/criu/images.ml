open Dapper_isa
open Dapper_binary
open Dapper_machine
open Dapper_proto

type thread_core = {
  tc_tid : int;
  tc_arch : Arch.t;
  tc_regs : int64 array;
  tc_pc : int64;
  tc_tls : int64;
}

type vma = { v_start : int64; v_npages : int; v_kind : Process.vma_kind }

type mm = { mm_brk : int64; mm_vmas : vma list }

type pagemap_entry = {
  pm_vaddr : int64;
  pm_npages : int;
  pm_in_dump : bool;
}

type files_img = { fi_app : string; fi_arch : Arch.t }

module Pages = Map.Make (Int)

type image_set = {
  is_cores : thread_core list;
  is_mm : mm;
  is_pagemap : pagemap_entry list;
  is_pages : string Pages.t;
  is_files : files_img;
}

exception Image_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Image_error s)) fmt

(* ----- protobuf schemas -----
   core.img:    1 tid, 2 arch, 3 pc, 4 tls, 5 repeated fixed64 regs
   mm.img:      1 brk, 2 repeated vma { 1 start, 2 npages, 3 kind, 4 stack tid }
   pagemap.img: 1 repeated entry { 1 vaddr, 2 npages, 3 in_dump }
   files.img:   1 app, 2 arch *)

let encode_core tc =
  Proto.encode
    ([ Proto.v_int 1 (Int64.of_int tc.tc_tid);
       Proto.v_str 2 (Arch.name tc.tc_arch);
       Proto.v_fix 3 tc.tc_pc;
       Proto.v_fix 4 tc.tc_tls ]
     @ List.map (fun r -> Proto.v_fix 5 r) (Array.to_list tc.tc_regs))

let decode_core bytes =
  let fs = Proto.decode bytes in
  let arch_name = Proto.get_str fs 2 in
  let tc_arch =
    match Arch.of_name arch_name with
    | Some a -> a
    | None -> fail "core: bad arch %s" arch_name
  in
  let regs =
    List.filter_map
      (fun (f : Proto.field) ->
        if f.tag = 5 then
          match f.payload with Proto.Fixed64 v -> Some v | _ -> None
        else None)
      fs
  in
  let tc_regs = Array.of_list regs in
  let expected = Process.reg_count in
  if Array.length tc_regs <> expected then
    fail "core: %d registers, expected %d" (Array.length tc_regs) expected;
  { tc_tid = Int64.to_int (Proto.get_int fs 1); tc_arch;
    tc_pc = Proto.get_fix fs 3; tc_tls = Proto.get_fix fs 4; tc_regs }

let kind_code = function
  | Process.Vma_code -> 0
  | Process.Vma_data -> 1
  | Process.Vma_tls -> 2
  | Process.Vma_heap -> 3
  | Process.Vma_stack _ -> 4

let encode_mm mm =
  Proto.encode
    (Proto.v_fix 1 mm.mm_brk
     :: List.map
          (fun v ->
            Proto.v_msg 2
              [ Proto.v_fix 1 v.v_start;
                Proto.v_int 2 (Int64.of_int v.v_npages);
                Proto.v_int 3 (Int64.of_int (kind_code v.v_kind));
                Proto.v_int 4
                  (Int64.of_int (match v.v_kind with Process.Vma_stack t -> t | _ -> 0)) ])
          mm.mm_vmas)

let decode_mm bytes =
  let fs = Proto.decode bytes in
  let vmas =
    List.map
      (fun m ->
        let kind =
          match Int64.to_int (Proto.get_int m 3) with
          | 0 -> Process.Vma_code
          | 1 -> Process.Vma_data
          | 2 -> Process.Vma_tls
          | 3 -> Process.Vma_heap
          | 4 -> Process.Vma_stack (Int64.to_int (Proto.get_int m 4))
          | k -> fail "mm: bad vma kind %d" k
        in
        { v_start = Proto.get_fix m 1; v_npages = Int64.to_int (Proto.get_int m 2);
          v_kind = kind })
      (Proto.get_all_msgs fs 2)
  in
  { mm_brk = Proto.get_fix fs 1; mm_vmas = vmas }

let encode_pagemap entries =
  Proto.encode
    (List.map
       (fun e ->
         Proto.v_msg 1
           [ Proto.v_fix 1 e.pm_vaddr;
             Proto.v_int 2 (Int64.of_int e.pm_npages);
             Proto.v_int 3 (if e.pm_in_dump then 1L else 0L) ])
       entries)

let decode_pagemap bytes =
  List.map
    (fun m ->
      { pm_vaddr = Proto.get_fix m 1; pm_npages = Int64.to_int (Proto.get_int m 2);
        pm_in_dump = Proto.get_int m 3 <> 0L })
    (Proto.get_all_msgs (Proto.decode bytes) 1)

let encode_files fi =
  Proto.encode [ Proto.v_str 1 fi.fi_app; Proto.v_str 2 (Arch.name fi.fi_arch) ]

let decode_files bytes =
  let fs = Proto.decode bytes in
  let arch_name = Proto.get_str fs 2 in
  match Arch.of_name arch_name with
  | Some a -> { fi_app = Proto.get_str fs 1; fi_arch = a }
  | None -> fail "files: bad arch %s" arch_name

let pagemap_of_pages pages =
  let rec go acc = function
    | [] -> List.rev acc
    | (pn, d) :: rest ->
      (match acc with
       | e :: acc_rest
         when e.pm_in_dump = d && Layout.page_of_addr e.pm_vaddr + e.pm_npages = pn ->
         go ({ e with pm_npages = e.pm_npages + 1 } :: acc_rest) rest
       | _ -> go ({ pm_vaddr = Layout.addr_of_page pn; pm_npages = 1; pm_in_dump = d } :: acc) rest)
  in
  go [] pages

(* Page numbers of the dumped ([d] true) or lazy pages, ascending. *)
let pages_where d pagemap =
  List.concat_map
    (fun e ->
      if e.pm_in_dump <> d then []
      else List.init e.pm_npages (fun k -> Layout.page_of_addr e.pm_vaddr + k))
    pagemap

let lazy_pages is = pages_where false is.is_pagemap

(* The files in the order they are written and sent; pages-1.img is the
   dumped pages in page order, which is pagemap order. *)
let to_wire is =
  List.map
    (fun tc -> (Printf.sprintf "core-%d.img" tc.tc_tid, [ encode_core tc ]))
    is.is_cores
  @ [ ("mm.img", [ encode_mm is.is_mm ]);
      ("pagemap.img", [ encode_pagemap is.is_pagemap ]);
      ("pages-1.img", List.map snd (Pages.bindings is.is_pages));
      ("files.img", [ encode_files is.is_files ]) ]

let to_files is =
  List.map (fun (name, parts) -> (name, String.concat "" parts)) (to_wire is)

let total_bytes is =
  List.fold_left
    (fun acc (_, parts) -> List.fold_left (fun acc p -> acc + String.length p) acc parts)
    0 (to_wire is)

(* Untrusted bytes meet the page table's invariant here: entries are
   page-aligned, hold at least one page, ascend without overlap from
   address 0 and end by the stack top, and pages-1.img holds exactly the
   pages they list as dumped. *)
let check_entry prev_end e =
  if Layout.page_offset e.pm_vaddr <> 0 then
    fail "pagemap: entry at 0x%Lx is not page-aligned" e.pm_vaddr;
  if e.pm_npages < 1 then fail "pagemap: entry at 0x%Lx holds %d pages" e.pm_vaddr e.pm_npages;
  if Int64.compare e.pm_vaddr prev_end < 0 then
    fail "pagemap: entry at 0x%Lx starts before 0x%Lx" e.pm_vaddr prev_end;
  if e.pm_npages > Layout.page_of_addr (Int64.sub Layout.stack_top e.pm_vaddr) then
    fail "pagemap: entry at 0x%Lx of %d pages ends past the stack top" e.pm_vaddr e.pm_npages;
  Int64.add e.pm_vaddr (Int64.of_int (e.pm_npages * Layout.page_size))

let split_pages pagemap file =
  ignore (List.fold_left check_entry 0L pagemap : int64);
  let dumped = pages_where true pagemap in
  let n = List.length dumped in
  if String.length file <> n * Layout.page_size then
    fail "pages-1.img: %d bytes for %d dumped pages" (String.length file) n;
  List.mapi (fun i pn -> (pn, String.sub file (i * Layout.page_size) Layout.page_size)) dumped
  |> List.to_seq |> Pages.of_seq

let parse_files files =
  (* One pass over the file list: hash every image by name (first
     occurrence wins, like [List.assoc_opt]) and collect the per-thread
     cores, instead of a linear scan per named image plus a filter_map
     re-scan. *)
  let by_name = Hashtbl.create 16 in
  let cores = ref [] in
  List.iter
    (fun (name, bytes) ->
      if not (Hashtbl.mem by_name name) then Hashtbl.add by_name name bytes;
      if String.length name > 5 && String.sub name 0 5 = "core-" then
        cores := decode_core bytes :: !cores)
    files;
  let find name =
    match Hashtbl.find_opt by_name name with
    | Some v -> v
    | None -> fail "missing image file %s" name
  in
  let cores =
    List.sort (fun a b -> Int.compare a.tc_tid b.tc_tid) (List.rev !cores)
  in
  let pagemap = decode_pagemap (find "pagemap.img") in
  { is_cores = cores;
    is_mm = decode_mm (find "mm.img");
    is_pagemap = pagemap;
    is_pages = split_pages pagemap (find "pages-1.img");
    is_files = decode_files (find "files.img") }

let of_files files =
  (* Malformed protobuf inside any file is malformed input like any
     other: the decoders' error becomes [Image_error] here. *)
  try parse_files files with Proto.Decode_error msg -> fail "malformed image: %s" msg

let read_page is pn = Pages.find_opt pn is.is_pages

let write_page is pn data =
  if String.length data <> Layout.page_size then fail "write_page: bad size";
  if not (Pages.mem pn is.is_pages) then fail "write_page: page %d not in dump" pn;
  { is with is_pages = Pages.add pn data is.is_pages }

let read_u64 is addr =
  let page a =
    match Pages.find_opt (Layout.page_of_addr a) is.is_pages with
    | Some page when Int64.compare a 0L >= 0 -> page
    | _ -> fail "read_u64: address 0x%Lx not in dump" a
  in
  let within = Layout.page_offset addr in
  if within + 8 <= Layout.page_size then Dapper_util.Bytebuf.get_i64 (page addr) within
  else begin
    (* crosses a page boundary: read bytewise *)
    let v = ref 0L in
    for i = 7 downto 0 do
      let a = Int64.add addr (Int64.of_int i) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (page a).[Layout.page_offset a]))
    done;
    !v
  end
