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

let encode_pagemap entries =
  Proto.encode
    (List.map
       (fun e ->
         Proto.v_msg 1
           [ Proto.v_fix 1 e.pm_vaddr;
             Proto.v_int 2 (Int64.of_int e.pm_npages);
             Proto.v_int 3 (if e.pm_in_dump then 1L else 0L) ])
       entries)

let encode_files fi =
  Proto.encode [ Proto.v_str 1 fi.fi_app; Proto.v_str 2 (Arch.name fi.fi_arch) ]

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

let lazy_pages is =
  List.concat_map
    (fun e ->
      if e.pm_in_dump then []
      else List.init e.pm_npages (fun k -> Layout.page_of_addr e.pm_vaddr + k))
    is.is_pagemap

type file =
  | Core of thread_core
  | Mm of mm
  | Pagemap of pagemap_entry list
  | Pages of string Pages.t
  | Files of files_img

let files is =
  List.map (fun tc -> (Printf.sprintf "core-%d.img" tc.tc_tid, Core tc)) is.is_cores
  @ [ ("mm.img", Mm is.is_mm);
      ("pagemap.img", Pagemap is.is_pagemap);
      ("pages-1.img", Pages is.is_pages);
      ("files.img", Files is.is_files) ]

(* pages-1.img is the dumped pages in page order, which is pagemap
   order. *)
let encode = function
  | Core tc -> [ encode_core tc ]
  | Mm mm -> [ encode_mm mm ]
  | Pagemap entries -> [ encode_pagemap entries ]
  | Pages pages -> List.map snd (Pages.bindings pages)
  | Files fi -> [ encode_files fi ]

let to_wire is = List.map (fun (name, file) -> (name, encode file)) (files is)

let to_files is =
  List.map (fun (name, parts) -> (name, String.concat "" parts)) (to_wire is)

let total_bytes is =
  List.fold_left
    (fun acc (_, parts) -> List.fold_left (fun acc p -> acc + String.length p) acc parts)
    0 (to_wire is)

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
