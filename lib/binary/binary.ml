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
