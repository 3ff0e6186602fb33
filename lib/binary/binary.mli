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

(** Private, so only {!make} builds one: [bin_index] always indexes
    [bin_stackmaps]. *)
type t = private {
  bin_app : string;          (** application name, e.g. ["npb-cg.A"] *)
  bin_arch : Arch.t;
  bin_sections : section list;
  bin_symbols : symbol list;
  bin_stackmaps : Stackmap.func_map list;
  bin_index : Stackmap_index.tables;
  bin_tls_size : int;        (** bytes of each thread's TLS image *)
  bin_tls_init : string;     (** initial TLS image *)
  bin_anchors : anchors;
}

(** The constructor every binary goes through (the linker, {!deserialize}
    and {!with_stackmaps}); it builds the stack-map index. *)
val make :
  app:string -> arch:Arch.t -> sections:section list -> symbols:symbol list ->
  stackmaps:Stackmap.func_map list -> tls_size:int -> tls_init:string ->
  anchors:anchors -> t

(** A fresh lookup handle over the binary's stack-map index, its lookup
    count at 0. *)
val index : t -> Stackmap_index.t

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

(** Serialize / parse (used for on-disk storage and network transfer
    accounting). [deserialize] raises [Byte_reader.Malformed] on any
    input [serialize] could not have produced. *)
val serialize : t -> string
val deserialize : string -> t

(** [with_text b data] replaces the text section contents (used by the
    stack shuffler, which patches code). Length may change; the symbol
    table and stack maps are kept, and so is the index. *)
val with_text : t -> string -> t

(** [with_stackmaps b maps] replaces the stack maps and rebuilds the
    index over them. *)
val with_stackmaps : t -> Stackmap.func_map list -> t
