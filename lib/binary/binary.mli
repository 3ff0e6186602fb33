(** The ELF-like executable container produced by the backend.

    Carries machine code, initialized data, the symbol table, the
    [.stackmaps] metadata section and the runtime anchor addresses the
    Dapper runtime needs (transformation flag, exit stubs). A program is
    compiled into one binary {e per architecture}; the symbol-alignment
    pass guarantees equal symbol addresses across them. *)

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

(** Fixed runtime anchors compiled into every binary. *)
type anchors = {
  a_entry : int64;           (** address of [main] *)
  a_exit_stub : int64;       (** bottom-of-stack return target for main *)
  a_thread_exit_stub : int64;(** bottom-of-stack return target for threads *)
  a_flag : int64;            (** the dapper transformation-request flag *)
}

(** A plain record: nothing in it is derived from another field, so a
    binary with other stack maps is [{ b with bin_stackmaps = maps }]. *)
type t = {
  bin_app : string;          (** application name, e.g. ["npb-cg.A"] *)
  bin_arch : Arch.t;
  bin_sections : section list;
  bin_symbols : symbol list;
  bin_stackmaps : Stackmap.func_map list;
  bin_tls_size : int;        (** bytes of each thread's TLS image *)
  bin_tls_init : string;     (** initial TLS image *)
  bin_anchors : anchors;
}

(** Size of the executable [.text] section (drives Fig. 9's shuffle cost). *)
val text_size : t -> int

val find_section : t -> string -> section option
val find_symbol : t -> string -> symbol option

(** Code bytes for [\[addr, addr+len)], taken from the text section.
    Raises [Invalid_argument] if out of range. *)
val code_bytes : t -> int64 -> int -> string

(** [text_page b pn] is page [pn] as the text section fills it, zeros
    where the section does not reach; [None] when [b] has no text
    section. *)
val text_page : t -> int -> bytes option

(** [with_text b data] replaces the text section contents (used by the
    stack shuffler, which patches code). Length may change; the symbol
    table and stack maps are kept. *)
val with_text : t -> string -> t
