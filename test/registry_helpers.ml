(* Shared compiled fixtures for test suites. *)

module Link = Dapper_codegen.Link

let compute_cache = ref None

let other_cache = ref None

let other_app () =
  match !other_cache with
  | Some c -> c
  | None ->
    let sp = Dapper_workloads.Registry.find "dhrystone" in
    let c =
      Link.compile ~app:"dhrystone" (Lazy.force sp.Dapper_workloads.Registry.sp_modul)
    in
    other_cache := Some c;
    c

let compute () =
  match !compute_cache with
  | Some c -> c
  | None ->
    let sp = Dapper_workloads.Registry.find "nginx" in
    let c = Link.compile ~app:"nginx" (Lazy.force sp.Dapper_workloads.Registry.sp_modul) in
    compute_cache := Some c;
    c

(* [mem] tracks no dirty pages: rewriting one byte of a mapped page with
   its own value, which changes nothing, leaves the dirty set empty. *)
let tracks_no_dirty_pages mem =
  let module Memory = Dapper_machine.Memory in
  let a = Dapper_binary.Layout.addr_of_page (List.hd (Memory.mapped_pages mem)) in
  Memory.write_u8 mem a (Memory.read_u8 mem a);
  Memory.dirty_pages mem = []
