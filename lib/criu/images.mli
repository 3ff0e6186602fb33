(** CRIU process-image set.

    A checkpoint is a set of named image files, most in protobuf format
    (paper Section II / III-D2):

    - [core-<tid>.img]  — per-thread registers, pc, TLS base
    - [mm.img]          — brk and VMA list
    - [pagemap.img]     — which virtual pages are populated, and whether
                          their contents are in the dump or left lazy
    - [pages-1.img]     — raw contents of the dumped pages, in page
                          order (not protobuf)
    - [files.img]       — the executable identity (app name, architecture)

    Dump, the rewriter and restore work on the in-memory records below.
    {!files} names the file set once; bytes are only written, by
    {!to_wire}, and nothing in the program parses them back. *)

open Dapper_isa

type thread_core = {
  tc_tid : int;
  tc_arch : Arch.t;
  tc_regs : int64 array;  (** indexed by DWARF register number; 33 entries *)
  tc_pc : int64;
  tc_tls : int64;
}

type vma = { v_start : int64; v_npages : int; v_kind : Dapper_machine.Process.vma_kind }

type mm = { mm_brk : int64; mm_vmas : vma list }

type pagemap_entry = {
  pm_vaddr : int64;
  pm_npages : int;
  pm_in_dump : bool;  (** false: page stays on the source node (lazy) *)
}

type files_img = { fi_app : string; fi_arch : Arch.t }

(** Tables keyed by page number. *)
module Pages : Map.S with type key = int

(** In memory, an image holds its pages in one immutable table; the
    concatenated [pages-1.img] exists only in {!to_files}. The table
    maps each page [is_pagemap] lists as dumped, and no other, to that
    page's [Layout.page_size] bytes. [Dump.dump] and [Rewrite.rewrite]
    build images that keep this invariant; an image changed by hand
    must keep it too. *)
type image_set = {
  is_cores : thread_core list;
  is_mm : mm;
  is_pagemap : pagemap_entry list;
  is_pages : string Pages.t;
  is_files : files_img;
}

exception Image_error of string

(** The pagemap of ascending page numbers, each with its disposition
    ([true]: in the dump), coalesced into runs of contiguous pages with
    one disposition. Every pagemap Dump and Rewrite make comes from
    here. *)
val pagemap_of_pages : (int * bool) list -> pagemap_entry list

(** Page numbers the pagemap lists as lazy, ascending. *)
val lazy_pages : image_set -> int list

(** One image file's record: a thread's core, the mm, the pagemap, the
    dumped pages' table or the executable identity. *)
type file =
  | Core of thread_core
  | Mm of mm
  | Pagemap of pagemap_entry list
  | Pages of string Pages.t
  | Files of files_img

(** The named files, in the order they are written and sent: one core
    per thread, then [mm.img], [pagemap.img], [pages-1.img] and
    [files.img]. *)
val files : image_set -> (string * file) list

(** The files of {!files}, each as the list of byte strings that make
    it up: one encoded protobuf per file, except [pages-1.img], which is
    the table's pages in page order. No page is copied: the transport
    sends these, and the image itself is what arrives. *)
val to_wire : image_set -> (string * string list) list

(** Each file of {!to_wire} concatenated, for comparing or printing
    whole files (the fast-path oracle, the examples, the tests); the
    transfer never builds [pages-1.img]. *)
val to_files : image_set -> (string * string) list

(** Total byte size of the files of {!to_wire} — the quantity the scp
    cost model charges. *)
val total_bytes : image_set -> int

(** One dumped page's contents. [write_page] replaces a dumped page
    (raises [Image_error] for a page not in the dump or of the wrong
    size). *)
val read_page : image_set -> int -> string option
val write_page : image_set -> int -> string -> image_set

(** Read a little-endian 64-bit value inside dumped pages; raises
    [Image_error] on a lazy or unmapped address. *)
val read_u64 : image_set -> int64 -> int64
