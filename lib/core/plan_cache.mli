(** Per-(source binary, destination binary, function) rewrite-plan cache.

    The rewriter makes the same frame-placement decisions on every
    migration of the same binary pair: which live values of a
    [(function, eqpoint)] are frame-resident on both sides and therefore
    feed pointer translation's intervals. This module memoizes
    those decisions keyed by [(app, source arch, destination arch,
    function, eqpoint id)].

    Cached plans are {e offset-free}: they name live values by their
    cross-ISA keys and read concrete frame offsets from the current
    binaries' stack maps at apply time. Stack shuffling only
    permutes offsets, so periodic re-randomization pays plan
    construction once — every epoch after the first hits the cache. A
    cached plan is validated against the offset-free {!shape} of the
    current equivalence-point pair before use, so a software update that
    changes a function's live set can never apply a stale plan. *)

open Dapper_isa
open Dapper_binary

type lv_shape = {
  s_key : Stackmap.lv_key;
  s_ty : Stackmap.lv_ty;
  s_size : int;
  s_frame : bool;   (** frame-resident (at some offset) vs register *)
}

type shape = {
  sh_src : lv_shape list;   (** source [ep_live], in order *)
  sh_dst : lv_shape list;   (** destination [ep_live], in order *)
}

type plan = {
  pl_shape : shape;
  pl_intervals : (Stackmap.lv_key * int) list;
    (** live values frame-resident on both sides: key + source size,
        in source [ep_live] order *)
}

(** Return the cached plan for the key when its shape matches, else
    derive, cache and return a fresh plan; [true] on a cache hit. The
    caller counts hits and misses (the rewriter reports them per run in
    [Rewrite.stats]). *)
val lookup :
  app:string -> src_arch:Arch.t -> dst_arch:Arch.t -> fn:string -> ep_id:int ->
  src_ep:Stackmap.eqpoint -> dst_ep:Stackmap.eqpoint -> plan * bool

(** Drop all cached plans. *)
val clear : unit -> unit

(** {1 Output-level memoization}

    Beyond plan-level decisions, a {!memo} caches rewrite {e outputs}
    keyed by content hashes — per pass-through page (content digest:
    hit means the page need not be re-encoded) and per thread (digest
    of its unwound frames, live-value bytes, argument registers, TLS,
    present stack pages and the global pointer-translation interval
    set, mapped to the finished destination core + rewritten stack
    pages). An environment digest over the binary pair guards the
    whole memo: entries from a different binary pair can never be
    replayed. Opt-in: pass a memo to [Rewrite.rewrite] (via
    [Session.config.cfg_recode_memo]); the default pipeline never
    consults one. *)

(** A memoized thread rewrite: the destination thread core and the
    thread's rewritten stack pages (page number, full page bytes). *)
type thread_patch = {
  tp_core : Dapper_criu.Images.thread_core;
  tp_pages : (int * string) list;
}

type memo

val create_memo : unit -> memo

(** Bind the memo to an environment digest, emptying it first when the
    environment changed; [true] when existing entries remain valid. *)
val memo_bind : memo -> env:Digest.t -> bool

val memo_page_hit : memo -> int -> Digest.t -> bool
val memo_page_store : memo -> int -> Digest.t -> unit
val memo_thread_hit : memo -> int -> Digest.t -> thread_patch option
val memo_thread_store : memo -> int -> Digest.t -> thread_patch -> unit
