open Dapper_isa
open Dapper_machine
open Dapper_util

exception Crit_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Crit_error s)) fmt

let json_of_core (tc : Images.thread_core) =
  Json.Obj
    [ ("tid", Json.Int (Int64.of_int tc.tc_tid));
      ("arch", Json.String (Arch.name tc.tc_arch));
      ("pc", Json.String (Printf.sprintf "0x%Lx" tc.tc_pc));
      ("tls", Json.String (Printf.sprintf "0x%Lx" tc.tc_tls));
      ("regs",
       Json.List
         (Array.to_list
            (Array.mapi
               (fun idx r ->
                 Json.Obj
                   [ ("dwarf", Json.Int (Int64.of_int idx));
                     ("name", Json.String (Arch.reg_name tc.tc_arch idx));
                     ("value", Json.String (Printf.sprintf "0x%Lx" r)) ])
               tc.tc_regs))) ]

let hex_to_i64 j =
  match j with
  | Json.String s -> Int64.of_string s
  | Json.Int v -> v
  | _ -> fail "expected hex string"

let core_of_json j =
  let regs =
    Json.to_list (Json.member "regs" j)
    |> List.map (fun r -> hex_to_i64 (Json.member "value" r))
    |> Array.of_list
  in
  let arch_name = Json.to_str (Json.member "arch" j) in
  match Arch.of_name arch_name with
  | None -> fail "bad arch %s" arch_name
  | Some arch ->
    { Images.tc_tid = Int64.to_int (Json.to_int (Json.member "tid" j));
      tc_arch = arch;
      tc_pc = hex_to_i64 (Json.member "pc" j);
      tc_tls = hex_to_i64 (Json.member "tls" j);
      tc_regs = regs }

let kind_of_name s =
  match s with
  | "code" -> Process.Vma_code
  | "data" -> Process.Vma_data
  | "tls" -> Process.Vma_tls
  | "heap" -> Process.Vma_heap
  | s when String.length s > 6 && String.sub s 0 6 = "stack:" ->
    Process.Vma_stack (int_of_string (String.sub s 6 (String.length s - 6)))
  | s -> fail "bad vma kind %s" s

let json_of_mm (mm : Images.mm) =
  Json.Obj
    [ ("brk", Json.String (Printf.sprintf "0x%Lx" mm.mm_brk));
      ("vmas",
       Json.List
         (List.map
            (fun (v : Images.vma) ->
              Json.Obj
                [ ("start", Json.String (Printf.sprintf "0x%Lx" v.v_start));
                  ("npages", Json.Int (Int64.of_int v.v_npages));
                  ("kind", Json.String (Process.vma_kind_name v.v_kind)) ])
            mm.mm_vmas)) ]

let mm_of_json j =
  { Images.mm_brk = hex_to_i64 (Json.member "brk" j);
    mm_vmas =
      List.map
        (fun v ->
          { Images.v_start = hex_to_i64 (Json.member "start" v);
            v_npages = Int64.to_int (Json.to_int (Json.member "npages" v));
            v_kind = kind_of_name (Json.to_str (Json.member "kind" v)) })
        (Json.to_list (Json.member "vmas" j)) }

let json_of_pagemap entries =
  Json.List
    (List.map
       (fun (e : Images.pagemap_entry) ->
         Json.Obj
           [ ("vaddr", Json.String (Printf.sprintf "0x%Lx" e.pm_vaddr));
             ("npages", Json.Int (Int64.of_int e.pm_npages));
             ("in_dump", Json.Bool e.pm_in_dump) ])
       entries)

let pagemap_of_json j =
  List.map
    (fun e ->
      { Images.pm_vaddr = hex_to_i64 (Json.member "vaddr" e);
        pm_npages = Int64.to_int (Json.to_int (Json.member "npages" e));
        pm_in_dump = Json.to_bool (Json.member "in_dump" e) })
    (Json.to_list j)

let json_of_files (fi : Images.files_img) =
  Json.Obj
    [ ("app", Json.String fi.fi_app); ("arch", Json.String (Arch.name fi.fi_arch)) ]

let files_of_json j =
  let arch_name = Json.to_str (Json.member "arch" j) in
  match Arch.of_name arch_name with
  | None -> fail "bad arch %s" arch_name
  | Some arch -> { Images.fi_app = Json.to_str (Json.member "app" j); fi_arch = arch }

let is_core_file name =
  String.length name > 5 && String.sub name 0 5 = "core-"

let is_pages_file name =
  String.length name > 6 && String.sub name 0 6 = "pages-"

let decode_image name bytes =
  if is_core_file name then json_of_core (Images.decode_core bytes)
  else if is_pages_file name then
    Json.Obj [ ("raw_len", Json.Int (Int64.of_int (String.length bytes))) ]
  else
    match name with
    | "mm.img" -> json_of_mm (Images.decode_mm bytes)
    | "pagemap.img" -> json_of_pagemap (Images.decode_pagemap bytes)
    | "files.img" -> json_of_files (Images.decode_files bytes)
    | _ -> fail "unknown image file %s" name

(* Malformed bytes are this tool's error like any other, as in
   [Images.of_files]. *)
let decode_file name bytes =
  try decode_image name bytes with
  | Dapper_proto.Proto.Decode_error msg | Images.Image_error msg ->
    fail "malformed %s: %s" name msg

let encode_file name json =
  if is_core_file name then Images.encode_core (core_of_json json)
  else if is_pages_file name then fail "pages are raw; cannot encode from JSON"
  else
    match name with
    | "mm.img" -> Images.encode_mm (mm_of_json json)
    | "pagemap.img" -> Images.encode_pagemap (pagemap_of_json json)
    | "files.img" -> Images.encode_files (files_of_json json)
    | _ -> fail "unknown image file %s" name

let show is =
  Images.to_files is
  |> List.map (fun (name, bytes) ->
         Printf.sprintf "=== %s ===\n%s" name (Json.to_string (decode_file name bytes)))
  |> String.concat "\n"
