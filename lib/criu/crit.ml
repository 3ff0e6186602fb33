open Dapper_isa
open Dapper_machine
open Dapper_util

let hex v = Json.String (Printf.sprintf "0x%Lx" v)
let int n = Json.Int (Int64.of_int n)

let json = function
  | Images.Core tc ->
    Json.Obj
      [ ("tid", int tc.tc_tid);
        ("arch", Json.String (Arch.name tc.tc_arch));
        ("pc", hex tc.tc_pc);
        ("tls", hex tc.tc_tls);
        ("regs",
         Json.List
           (Array.to_list
              (Array.mapi
                 (fun idx r ->
                   Json.Obj
                     [ ("dwarf", int idx);
                       ("name", Json.String (Arch.reg_name tc.tc_arch idx));
                       ("value", hex r) ])
                 tc.tc_regs))) ]
  | Images.Mm mm ->
    Json.Obj
      [ ("brk", hex mm.mm_brk);
        ("vmas",
         Json.List
           (List.map
              (fun (v : Images.vma) ->
                Json.Obj
                  [ ("start", hex v.v_start);
                    ("npages", int v.v_npages);
                    ("kind", Json.String (Process.vma_kind_name v.v_kind)) ])
              mm.mm_vmas)) ]
  | Images.Pagemap entries ->
    Json.List
      (List.map
         (fun (e : Images.pagemap_entry) ->
           Json.Obj
             [ ("vaddr", hex e.pm_vaddr);
               ("npages", int e.pm_npages);
               ("in_dump", Json.Bool e.pm_in_dump) ])
         entries)
  | Images.Pages pages ->
    Json.Obj
      [ ("raw_len", int (Images.Pages.fold (fun _ page n -> n + String.length page) pages 0)) ]
  | Images.Files fi ->
    Json.Obj [ ("app", Json.String fi.fi_app); ("arch", Json.String (Arch.name fi.fi_arch)) ]

let show is =
  Images.files is
  |> List.map (fun (name, file) ->
         Printf.sprintf "=== %s ===\n%s" name (Json.to_string (json file)))
  |> String.concat "\n"
