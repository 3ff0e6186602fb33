open Dapper_util
open Dapper_isa

type section = {
  sec_name : string;
  sec_addr : int64;
  sec_data : string;
  sec_exec : bool;
  sec_write : bool;
}

type sym_kind = Sym_func | Sym_object | Sym_tls

type symbol = {
  sym_name : string;
  sym_addr : int64;
  sym_size : int;
  sym_kind : sym_kind;
}

type anchors = {
  a_entry : int64;
  a_exit_stub : int64;
  a_thread_exit_stub : int64;
  a_flag : int64;
}

type t = {
  bin_app : string;
  bin_arch : Arch.t;
  bin_sections : section list;
  bin_symbols : symbol list;
  bin_stackmaps : Stackmap.func_map list;
  bin_index : Stackmap_index.tables;
  bin_tls_size : int;
  bin_tls_init : string;
  bin_anchors : anchors;
}

let make ~app ~arch ~sections ~symbols ~stackmaps ~tls_size ~tls_init ~anchors =
  { bin_app = app; bin_arch = arch; bin_sections = sections; bin_symbols = symbols;
    bin_stackmaps = stackmaps; bin_index = Stackmap_index.build stackmaps;
    bin_tls_size = tls_size; bin_tls_init = tls_init; bin_anchors = anchors }

let index b = Stackmap_index.handle b.bin_index

let find_section b name = List.find_opt (fun s -> s.sec_name = name) b.bin_sections
let find_symbol b name = List.find_opt (fun s -> s.sym_name = name) b.bin_symbols

let text_size b =
  match find_section b ".text" with
  | Some s -> String.length s.sec_data
  | None -> 0

let code_bytes b addr len =
  match find_section b ".text" with
  | None -> invalid_arg "Binary.code_bytes: no text section"
  | Some s ->
    let off = Int64.to_int (Int64.sub addr s.sec_addr) in
    if off < 0 || off + len > String.length s.sec_data then
      invalid_arg
        (Printf.sprintf "Binary.code_bytes: [0x%Lx, +%d) out of text range" addr len);
    String.sub s.sec_data off len

let text_page b pn =
  match find_section b ".text" with
  | None -> None
  | Some s ->
    let page = Bytes.make Layout.page_size '\000' in
    let off = Int64.to_int (Int64.sub (Layout.addr_of_page pn) s.sec_addr) in
    let len = String.length s.sec_data in
    if off >= 0 && off < len then
      Bytes.blit_string s.sec_data off page 0 (min Layout.page_size (len - off));
    Some page

let with_text b data =
  let sections =
    List.map
      (fun s -> if s.sec_name = ".text" then { s with sec_data = data } else s)
      b.bin_sections
  in
  { b with bin_sections = sections }

let with_stackmaps b maps =
  make ~app:b.bin_app ~arch:b.bin_arch ~sections:b.bin_sections
    ~symbols:b.bin_symbols ~stackmaps:maps ~tls_size:b.bin_tls_size
    ~tls_init:b.bin_tls_init ~anchors:b.bin_anchors

(* ----- serialization ----- *)

let add_str buf s =
  Bytebuf.add_u32 buf (String.length s);
  Bytebuf.add_bytes buf s

let serialize b =
  let buf = Bytebuf.create 65536 in
  add_str buf "DAPPERELF";
  add_str buf b.bin_app;
  add_str buf (Arch.name b.bin_arch);
  Bytebuf.add_u32 buf (List.length b.bin_sections);
  List.iter
    (fun s ->
      add_str buf s.sec_name;
      Bytebuf.add_i64 buf s.sec_addr;
      Bytebuf.add_u8 buf (if s.sec_exec then 1 else 0);
      Bytebuf.add_u8 buf (if s.sec_write then 1 else 0);
      add_str buf s.sec_data)
    b.bin_sections;
  Bytebuf.add_u32 buf (List.length b.bin_symbols);
  List.iter
    (fun s ->
      add_str buf s.sym_name;
      Bytebuf.add_i64 buf s.sym_addr;
      Bytebuf.add_u32 buf s.sym_size;
      Bytebuf.add_u8 buf
        (match s.sym_kind with Sym_func -> 0 | Sym_object -> 1 | Sym_tls -> 2))
    b.bin_symbols;
  add_str buf (Stackmap.serialize b.bin_stackmaps);
  Bytebuf.add_u32 buf b.bin_tls_size;
  add_str buf b.bin_tls_init;
  Bytebuf.add_i64 buf b.bin_anchors.a_entry;
  Bytebuf.add_i64 buf b.bin_anchors.a_exit_stub;
  Bytebuf.add_i64 buf b.bin_anchors.a_thread_exit_stub;
  Bytebuf.add_i64 buf b.bin_anchors.a_flag;
  Bytebuf.contents buf

module R = Byte_reader

let deserialize s =
  R.decode s @@ fun r ->
  let magic = R.str r in
  if magic <> "DAPPERELF" then R.malformed "Binary.deserialize: bad magic";
  let app = R.str r in
  let arch_name = R.str r in
  let arch =
    match Arch.of_name arch_name with
    | Some a -> a
    | None -> R.malformed "Binary.deserialize: bad arch %S" arch_name
  in
  let sections =
    R.list r (fun r ->
        let sec_name = R.str r in
        let sec_addr = R.i64 r in
        let sec_exec = R.u8 r = 1 in
        let sec_write = R.u8 r = 1 in
        let sec_data = R.str r in
        { sec_name; sec_addr; sec_data; sec_exec; sec_write })
  in
  let symbols =
    R.list r (fun r ->
        let sym_name = R.str r in
        let sym_addr = R.i64 r in
        let sym_size = R.u32 r in
        let sym_kind =
          match R.u8 r with
          | 0 -> Sym_func
          | 1 -> Sym_object
          | 2 -> Sym_tls
          | n -> R.malformed "Binary.deserialize: bad sym kind %d" n
        in
        { sym_name; sym_addr; sym_size; sym_kind })
  in
  let stackmaps = Stackmap.deserialize (R.str r) in
  let tls_size = R.u32 r in
  let tls_init = R.str r in
  let a_entry = R.i64 r in
  let a_exit_stub = R.i64 r in
  let a_thread_exit_stub = R.i64 r in
  let a_flag = R.i64 r in
  make ~app ~arch ~sections ~symbols ~stackmaps ~tls_size ~tls_init
    ~anchors:{ a_entry; a_exit_stub; a_thread_exit_stub; a_flag }
