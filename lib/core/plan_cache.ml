open Dapper_isa
open Dapper_binary

(* Offset-free projection of an equivalence point's live values. Stack
   shuffling permutes frame offsets but never keys, types, sizes or
   register/frame residency, so the shape — and therefore the plan
   derived from it — is stable across reshuffle epochs, while a software
   update that changes a function's live set changes its shape and
   invalidates the cached plan. *)
type lv_shape = {
  s_key : Stackmap.lv_key;
  s_ty : Stackmap.lv_ty;
  s_size : int;
  s_frame : bool;
}

type shape = {
  sh_src : lv_shape list;
  sh_dst : lv_shape list;
}

(* The memoized frame-placement decisions for one (function, eqpoint):
   which live values are frame-resident on both sides and therefore
   contribute a pointer-translation interval (key + source size). The
   plan stores no offsets — those are read from the stack maps of
   whichever binary pair is current when the plan is applied. *)
type plan = {
  pl_shape : shape;
  pl_intervals : (Stackmap.lv_key * int) list;
}

type key = {
  k_app : string;
  k_src_arch : Arch.t;
  k_dst_arch : Arch.t;
  k_fn : string;
  k_ep : int;
}

let cache : (key, plan) Hashtbl.t = Hashtbl.create 256

let clear () = Hashtbl.reset cache

let shape_of_live live =
  List.map
    (fun (lv : Stackmap.live_value) ->
      { s_key = lv.lv_key; s_ty = lv.lv_ty; s_size = lv.lv_size;
        s_frame = (match lv.lv_loc with Stackmap.Frame _ -> true | Stackmap.Reg _ -> false) })
    live

(* The pairing decision the rewriter's interval pass used to re-derive
   with an O(src x dst) scan on every frame of every migration: source
   frame-resident values that are also frame-resident at the destination
   equivalence point. *)
let derive shape =
  (* First occurrence wins: a key whose first destination occurrence is
     a register never contributes an interval, even if a later duplicate
     is frame-resident. *)
  let frame_at_dst key =
    match List.find_opt (fun d -> d.s_key = key) shape.sh_dst with
    | Some d -> d.s_frame
    | None -> false
  in
  let intervals =
    List.filter_map
      (fun s -> if s.s_frame && frame_at_dst s.s_key then Some (s.s_key, s.s_size) else None)
      shape.sh_src
  in
  { pl_shape = shape; pl_intervals = intervals }

let lookup ~app ~src_arch ~dst_arch ~fn ~ep_id ~(src_ep : Stackmap.eqpoint)
    ~(dst_ep : Stackmap.eqpoint) =
  let key = { k_app = app; k_src_arch = src_arch; k_dst_arch = dst_arch;
              k_fn = fn; k_ep = ep_id } in
  let shape = { sh_src = shape_of_live src_ep.ep_live;
                sh_dst = shape_of_live dst_ep.ep_live } in
  match Hashtbl.find_opt cache key with
  | Some plan when plan.pl_shape = shape -> (plan, true)
  | _ ->
    let plan = derive shape in
    Hashtbl.replace cache key plan;
    (plan, false)

(* ----- output-level memoization -----

   Plan-level caching above memoizes frame-placement {e decisions};
   this layer memoizes rewrite {e outputs}, keyed by content hashes, so
   a repeat migration (or reshuffle epoch) of an unchanged binary
   rewrites only what changed since the memo was filled:

   - per pass-through page (data/heap/TLS — everything the rewriter
     copies verbatim): the page's content digest. A hit means the page's
     encoded output is byte-identical to last time and need not be
     re-encoded;
   - per thread: a digest over everything the thread's rewritten stack
     depends on (its unwound frames and live-value bytes, argument
     registers, TLS, the set of stack pages present in the dump, and the
     global pointer-translation interval set — the only cross-thread
     coupling), mapped to the finished output: the destination
     [thread_core] plus the thread's rewritten stack pages.

   The environment digest guards the whole memo: any change to the
   binary pair (stack maps of either side, destination text, anchors,
   architectures) empties it, so a stale output can never be replayed
   against a different binary. The memo is opt-in and per-caller — the
   default pipeline never consults one. *)

type thread_patch = {
  tp_core : Dapper_criu.Images.thread_core;
  tp_pages : (int * string) list;
}

type memo = {
  mutable m_env : Digest.t option;
  m_pages : (int, Digest.t) Hashtbl.t;
  m_threads : (int, Digest.t * thread_patch) Hashtbl.t;
}

let create_memo () =
  { m_env = None; m_pages = Hashtbl.create 64; m_threads = Hashtbl.create 8 }

let memo_clear m =
  Hashtbl.reset m.m_pages;
  Hashtbl.reset m.m_threads

(* Rebind the memo to [env], emptying it when the environment moved.
   Returns true when existing entries remain valid. *)
let memo_bind m ~env =
  match m.m_env with
  | Some e when Digest.equal e env -> true
  | _ ->
    memo_clear m;
    m.m_env <- Some env;
    false

let memo_page_hit m pn digest =
  match Hashtbl.find_opt m.m_pages pn with
  | Some d -> Digest.equal d digest
  | None -> false

let memo_page_store m pn digest = Hashtbl.replace m.m_pages pn digest

let memo_thread_hit m tid digest =
  match Hashtbl.find_opt m.m_threads tid with
  | Some (d, patch) when Digest.equal d digest -> Some patch
  | _ -> None

let memo_thread_store m tid digest patch =
  Hashtbl.replace m.m_threads tid (digest, patch)
