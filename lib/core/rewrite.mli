(** The Dapper process rewriter (paper Section III-C/III-D2b).

    Transforms a dumped process image of one binary into an image
    restorable under another binary — the other architecture's, or a
    stack-shuffled variant of the same architecture. For every thread it:

    - unwinds the source stack using the source stack maps;
    - rebuilds each frame following the destination ABI (return-address
      placement, frame sizes, callee-saved save areas — the
      "register-save procedure" of the paper);
    - copies every live value from its source location to its
      destination location, which may move a value between a register
      and a stack slot across ISAs;
    - translates live stack pointers to their relocated targets;
    - replaces the execution-context code pages with the destination
      binary's and updates the image's executable identity;
    - rebases the TLS register by the per-architecture libc offset.

    All other pages (data, heap, TLS) transfer unchanged thanks to the
    unified address space. Works on both vanilla and lazy image sets
    (stacks are always dumped, so lazy pages are never needed).

    Lookups are scans. Functions, equivalence points and live values
    are found by {!Stackmap}'s first-match scans, through one counted
    {!Stackmap_index} handle per binary. A stack pointer moves with the
    first source interval (a frame-resident live value) that holds it. *)

open Dapper_util
open Dapper_binary
open Dapper_criu

type stats = {
  st_threads : int;
  st_frames : int;
  st_values : int;          (** live values copied *)
  st_ptrs_translated : int; (** stack pointers relocated *)
  st_code_pages : int;      (** execution-context pages replaced *)
  st_stack_bytes : int;     (** stack bytes rebuilt *)
  st_plan_hits : int;       (** rewrite-plan cache hits during this rewrite *)
  st_plan_misses : int;     (** rewrite-plan cache misses (plans derived) *)
  st_index_lookups : int;   (** stack-map lookups during this rewrite,
                                printed as "index lookups" *)
  st_interval_lookups : int;(** pointer-translation interval probes *)
  st_memo_page_hits : int;  (** pass-through pages skipped via output memo *)
  st_memo_thread_hits : int;(** threads replayed from the output memo *)
  st_skipped_bytes : int;   (** bytes not re-encoded thanks to memo hits *)
}

(** Total abstract work units, the input to the recode cost model. The
    observability counters ([st_plan_*], [st_index_lookups],
    [st_interval_lookups], [st_memo_*], [st_skipped_bytes]) deliberately
    do not contribute: caching changes the cost of a migration, never
    its result or its modeled work. *)
val work_items : stats -> int

(** Fails with [Dapper_error.Recode_failed] on an arch/app mismatch or a
    malformed image, [Dapper_error.Unwind_failed] if the source stack
    walk fails.

    With [?memo] the rewrite consults (and fills) an output-level
    memoization: threads whose content digest matches a memoized entry
    replay their stored destination core and stack pages instead of
    being re-unwound and re-encoded, and pass-through pages whose
    content digest is already memoized are counted as skipped. The
    produced image is byte-identical with and without a memo (verified
    by the conformance oracle); only the cost accounting
    ([st_skipped_bytes], fed to the recode cost model) changes. *)
val rewrite :
  ?memo:Plan_cache.memo ->
  Images.image_set -> src:Binary.t -> dst:Binary.t ->
  (Images.image_set * stats, Dapper_error.t) result
