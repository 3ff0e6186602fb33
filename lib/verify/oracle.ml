open Dapper_isa
open Dapper_binary
open Dapper_machine
module Link = Dapper_codegen.Link
module Session = Dapper.Session
module Monitor = Dapper.Monitor
module Unwind = Dapper.Unwind
module Dump = Dapper_criu.Dump
module Images = Dapper_criu.Images
module Rewrite = Dapper.Rewrite
module Plan_cache = Dapper.Plan_cache
module Derr = Dapper_util.Dapper_error
module Restore = Dapper_criu.Restore
module Replayer = Dapper_replay.Replayer
module Rlog = Dapper_replay.Log

type report = {
  rp_app : string;
  rp_src : Arch.t;
  rp_dst : Arch.t;
  rp_points : int;
  rp_complete : bool;
  rp_migrations : int;
  rp_snapshots : int;
  rp_values : int;
}

type failure = {
  fl_app : string;
  fl_src : Arch.t;
  fl_dst : Arch.t;
  fl_point : int;
  fl_what : string;
}

let report_to_string r =
  Printf.sprintf "%s %s->%s: %d points%s, %d migrations, %d snapshots, %d values"
    r.rp_app (Arch.name r.rp_src) (Arch.name r.rp_dst) r.rp_points
    (if r.rp_complete then "" else " (capped)")
    r.rp_migrations r.rp_snapshots r.rp_values

let failure_to_string f =
  Printf.sprintf "%s %s->%s at point %d: %s" f.fl_app (Arch.name f.fl_src)
    (Arch.name f.fl_dst) f.fl_point f.fl_what

(* Internal failure carrier: every check raises [Fail (point, what)] and
   [guarded] converts it to a [failure] at the entry point's boundary. *)
exception Fail of int * string

let fail point fmt = Printf.ksprintf (fun s -> raise (Fail (point, s))) fmt

let guarded (c : Link.compiled) ~src ~dst go =
  match go () with
  | r -> Ok r
  | exception Fail (point, what) ->
    Error { fl_app = c.Link.cp_app; fl_src = src; fl_dst = dst; fl_point = point; fl_what = what }

(* ----- pause-point stepping ----- *)

let advance_to_point p ~budget k =
  let rec go j =
    match Monitor.request_pause p ~budget with
    | Error Derr.Process_exited -> false
    | Error e -> raise (Fail (j, "pause failed: " ^ Derr.to_string e))
    | Ok _ -> if j = k then true else (Monitor.resume p; go (j + 1))
  in
  go 0

let parked bin k =
  let p = Process.load bin in
  if not (advance_to_point p ~budget:Monitor.default_budget k) then
    fail k "source exited before reaching point %d on replay" k;
  p

(* ----- live values across ISAs ----- *)

(* Compare the unwound stacks of the two paused twins: same threads,
   same frames (function, equivalence point, at-call flag), and
   byte-identical live values per cross-ISA key. Pointer-typed values
   are compared for presence only: stack addresses legally differ
   across ISAs (frame geometry) until the rewriter translates them. *)
let compare_stacks ~point ~values sa sb =
  let by_tid = List.sort (fun a b -> compare a.Unwind.ts_tid b.Unwind.ts_tid) in
  let sa = by_tid sa and sb = by_tid sb in
  if List.length sa <> List.length sb then
    fail point "thread counts differ (%d vs %d)" (List.length sa) (List.length sb);
  List.iter2
    (fun (ta : Unwind.thread_stack) (tb : Unwind.thread_stack) ->
      if ta.ts_tid <> tb.ts_tid then fail point "thread ids differ";
      if List.length ta.ts_frames <> List.length tb.ts_frames then
        fail point "thread %d frame counts differ (%d vs %d)" ta.ts_tid
          (List.length ta.ts_frames) (List.length tb.ts_frames);
      List.iteri
        (fun depth ((fa : Unwind.frame), (fb : Unwind.frame)) ->
          let where = Printf.sprintf "thread %d frame %d" ta.ts_tid depth in
          if fa.fr_func.Stackmap.fm_name <> fb.fr_func.Stackmap.fm_name then
            fail point "%s: functions differ (%s vs %s)" where fa.fr_func.Stackmap.fm_name
              fb.fr_func.Stackmap.fm_name;
          if fa.fr_ep.Stackmap.ep_id <> fb.fr_ep.Stackmap.ep_id then
            fail point "%s (%s): eqpoint ids differ (%d vs %d)" where
              fa.fr_func.Stackmap.fm_name fa.fr_ep.Stackmap.ep_id fb.fr_ep.Stackmap.ep_id;
          if fa.fr_at_call <> fb.fr_at_call then
            fail point "%s (%s): at-call flags differ" where fa.fr_func.Stackmap.fm_name;
          let sort = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) in
          let va = sort fa.fr_values and vb = sort fb.fr_values in
          if List.map fst va <> List.map fst vb then
            fail point "%s (%s ep%d): live keys differ" where fa.fr_func.Stackmap.fm_name
              fa.fr_ep.Stackmap.ep_id;
          let record_of key =
            List.find_opt
              (fun (lv : Stackmap.live_value) -> lv.lv_key = key)
              fa.fr_ep.Stackmap.ep_live
          in
          let comparable key =
            (* scalar integer/float temporaries only. Pointer values
               legally differ across ISAs (frame geometry), and named
               slots are recorded at every equivalence point whether or
               not they have been written yet, so a slot may hold stack
               residue — which is ISA-specific. Temporaries come from
               the liveness analysis and are always defined values. *)
            match (key, record_of key) with
            | ( Stackmap.Temp _,
                Some { Stackmap.lv_ty = Stackmap.Lv_i64 | Stackmap.Lv_f64; lv_size = 8; _ } )
              ->
              true
            | _ -> false
          in
          List.iter2
            (fun (key, bytes_a) (_, bytes_b) ->
              if comparable key then begin
                incr values;
                if not (String.equal bytes_a bytes_b) then
                  fail point "%s (%s ep%d): live value %s differs across ISAs" where
                    fa.fr_func.Stackmap.fm_name fa.fr_ep.Stackmap.ep_id
                    (match key with
                     | Stackmap.Slot s -> Printf.sprintf "slot %d" s
                     | Stackmap.Temp t -> Printf.sprintf "temp %d" t)
              end)
            va vb)
        (List.combine ta.ts_frames tb.ts_frames))
    sa sb

let unwound ~point (bin : Binary.t) p =
  match Dump.dump p with
  | Error e -> fail point "dump for deep compare failed: %s" (Derr.to_string e)
  | Ok image ->
    (match
       Unwind.unwind_all image (Binary.index bin) ~anchors:bin.Binary.bin_anchors
     with
     | Error e -> fail point "unwind for deep compare failed: %s" (Derr.to_string e)
     | Ok stacks -> stacks)

(* ----- the oracle ----- *)

(* The one reference every check compares against: a complete recording
   of the source twin. *)
let recorded bin =
  match Replayer.record bin with
  | Ok log -> log
  | Error e -> fail (-1) "recording failed: %s" e

(* The anchors a validating walk matched, or a [Fail] at its first
   divergence. *)
let matched ~what (o : Replayer.outcome) =
  match o.Replayer.ro_divergence with
  | None -> o.Replayer.ro_points
  | Some d -> fail d.Replayer.dv_point "%s: %s" what (Replayer.divergence_report d)

(* One whole session from [p], or a [Fail] at [point] naming the stage
   that failed. *)
let migrated ~point cfg p =
  match Session.run (Session.start cfg p) with
  | Ok s -> s
  | Error e ->
    fail point "%s failed: %s" (Derr.stage_name (Derr.stage_of e)) (Derr.to_string e)

(* Force-migrate a fresh source parked at point [k] through one whole
   session (its own pause finds every thread stopped there) and shadow
   the destination against [log] from anchor [k] to exit: the anchors
   compared, or a [Fail] at the first diverging one. *)
let shadow_migration ~log cfg k =
  let s = migrated ~point:k cfg (parked cfg.Session.cfg_src_bin k) in
  let q = (Session.finish s).Session.r_process in
  matched ~what:(Printf.sprintf "restored twin (migrated at %d)" k)
    (Replayer.shadow ~log ~from_point:k q)

let run ?(max_points = max_int) ~src ~dst (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let go () =
    (* phase 1: record the source twin, then replay the log on the
       destination ISA *)
    let log = recorded src_bin in
    let replayed =
      matched ~what:(Arch.name dst ^ " replay") (Replayer.replay ~log dst_bin)
    in
    let total = Rlog.points log in
    let points = min max_points total in
    (* phase 2: lockstep walk for the live values the log does not carry *)
    let values = ref 0 in
    let pa = Process.load src_bin and pb = Process.load dst_bin in
    for k = 0 to points - 1 do
      List.iter
        (fun p ->
          match Monitor.request_pause p ~budget:Monitor.default_budget with
          | Ok _ -> ()
          | Error e ->
            fail k "%s twin: pause failed: %s" (Arch.name p.Process.arch)
              (Derr.to_string e))
        [ pa; pb ];
      compare_stacks ~point:k ~values (unwound ~point:k src_bin pa)
        (unwound ~point:k dst_bin pb);
      Monitor.resume pa;
      Monitor.resume pb
    done;
    (* phase 3: force-migrate at every walked point and shadow the
       destination against the recording *)
    let cfg = Session.default_config ~src_bin ~dst_bin in
    let shadowed = ref 0 in
    for k = 0 to points - 1 do
      shadowed := !shadowed + shadow_migration ~log cfg k
    done;
    { rp_app = c.Link.cp_app;
      rp_src = src;
      rp_dst = dst;
      rp_points = points;
      rp_complete = total <= max_points;
      rp_migrations = points;
      rp_snapshots = replayed + !shadowed;
      rp_values = !values }
  in
  guarded c ~src ~dst go

(* ----- fast-path byte equivalence ----- *)

type fastpath_report = {
  fp_app : string;
  fp_points : int;
  fp_memo_thread_hits : int;
  fp_memo_page_hits : int;
  fp_saved_transfer_ms : float;
}

let fastpath_report_to_string r =
  Printf.sprintf
    "%s fastpaths: %d points, memo hits %d thread / %d page, transfer saved %.3f ms"
    r.fp_app r.fp_points r.fp_memo_thread_hits r.fp_memo_page_hits
    r.fp_saved_transfer_ms

(* Drive one full session, capturing the exact bytes that crossed the
   wire: the image the destination was restored from, serialized to its
   named files. Every fast path must reproduce these bytes exactly. *)
let run_capturing ~point cfg p =
  let s = migrated ~point cfg p in
  let files = List.sort compare (Images.to_files s.Session.s_state.Session.sm_image) in
  (files, Session.finish s)

let check_fastpaths ?(points = 3) ~src ~dst (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let base_cfg = Session.default_config ~src_bin ~dst_bin in
  let memo = Plan_cache.create_memo () in
  let checked = ref 0 and thr_hits = ref 0 and page_hits = ref 0 in
  let saved = ref 0.0 in
  let go () =
    let k = ref 0 in
    let continue_ = ref true in
    while !continue_ && !checked < points do
      let parked () =
        let p = Process.load src_bin in
        if advance_to_point p ~budget:Monitor.default_budget !k then Some p else None
      in
      (match parked () with
       | None -> continue_ := false
       | Some p ->
         let base_files, base = run_capturing ~point:!k base_cfg p in
         let variant name cfg =
           match parked () with
           | None -> fail !k "source no longer reaches point %d" !k
           | Some p ->
             let files, r = run_capturing ~point:!k cfg p in
             if files <> base_files then
               fail !k "%s image differs from the sequential pipeline" name;
             r
         in
         (* overlap: pipelined transfer may only shave the transfer cost *)
         let pipe =
           variant "pipelined"
             { base_cfg with Session.cfg_pipeline = true; cfg_chunk_bytes = 4096 }
         in
         let base_scp = base.Session.r_times.Session.t_scp_ms in
         let pipe_scp = pipe.Session.r_times.Session.t_scp_ms in
         if pipe_scp > base_scp +. 1e-9 then
           fail !k "pipelined transfer (%.6f ms) costs more than sequential (%.6f ms)"
             pipe_scp base_scp;
         saved := !saved +. (base_scp -. pipe_scp);
         (* parallelism: the multi-worker cost model must not change bytes *)
         let _workers =
           variant "multi-worker" { base_cfg with Session.cfg_recode_workers = 4 }
         in
         (* incrementality: cold fill then warm replay over the same point *)
         let cold =
           variant "memo-cold" { base_cfg with Session.cfg_recode_memo = Some memo }
         in
         let warm =
           variant "memo-warm" { base_cfg with Session.cfg_recode_memo = Some memo }
         in
         let wrw = warm.Session.r_rewrite in
         if wrw.Rewrite.st_memo_thread_hits = 0 && wrw.Rewrite.st_memo_page_hits = 0 then
           fail !k "warm memo run hit nothing";
         if
           warm.Session.r_times.Session.t_recode_ms
           > cold.Session.r_times.Session.t_recode_ms +. 1e-9
         then fail !k "warm memo recode costs more than cold";
         thr_hits := !thr_hits + wrw.Rewrite.st_memo_thread_hits;
         page_hits := !page_hits + wrw.Rewrite.st_memo_page_hits;
         (* all three fast paths composed *)
         let _all =
           variant "combined"
             { base_cfg with Session.cfg_pipeline = true; cfg_chunk_bytes = 4096;
               cfg_recode_workers = 4; cfg_recode_memo = Some memo }
         in
         incr checked;
         k := !k + 2)
    done;
    { fp_app = c.Link.cp_app;
      fp_points = !checked;
      fp_memo_thread_hits = !thr_hits;
      fp_memo_page_hits = !page_hits;
      fp_saved_transfer_ms = !saved }
  in
  guarded c ~src ~dst go

(* ----- shadow replay: divergence-localizing verification ----- *)

type shadow_report = {
  sr_app : string;
  sr_src : Arch.t;
  sr_dst : Arch.t;
  sr_points : int;
  sr_clean : int;
  sr_corrupted : int;
  sr_divergences : string list;
}

let shadow_report_to_string r =
  Printf.sprintf
    "%s %s->%s shadows: %d migration points, %d clean matches, %d corruptions \
     localized"
    r.sr_app (Arch.name r.sr_src) (Arch.name r.sr_dst) r.sr_points r.sr_clean
    r.sr_corrupted

(* Pick an in-dump data/heap/tls page of [image] to corrupt, steering
   clear of the page holding the transformation flag (its word is masked
   out of observation, so a flip there could legally go unseen). *)
let corruption_target (image : Images.image_set) (dst_bin : Binary.t) =
  let flag_page =
    Layout.page_of_addr dst_bin.Binary.bin_anchors.Binary.a_flag
  in
  let kind_of pn =
    List.find_map
      (fun (v : Images.vma) ->
        let s = Layout.page_of_addr v.Images.v_start in
        if pn >= s && pn < s + v.Images.v_npages then Some v.Images.v_kind
        else None)
      image.Images.is_mm.Images.mm_vmas
  in
  let dumped = List.map fst (Images.Pages.bindings image.Images.is_pages) in
  let observable pn =
    pn <> flag_page
    &&
    match kind_of pn with
    | Some (Process.Vma_data | Process.Vma_heap | Process.Vma_tls) -> true
    | _ -> false
  in
  List.find_opt observable dumped

let check_shadow ?(max_points = 3) ?(corrupt = true) ~src ~dst (c : Link.compiled) =
  let src_bin = Link.binary_for c src and dst_bin = Link.binary_for c dst in
  let go () =
    let log = recorded src_bin in
    if Rlog.points log = 0 then fail (-1) "program reaches no equivalence point";
    let points = min max_points (Rlog.points log) in
    let cfg = Session.default_config ~src_bin ~dst_bin in
    let corrupted = ref 0 and reports = ref [] in
    let step k what = function
      | Ok s -> s
      | Error e -> fail k "%s failed: %s" what (Derr.to_string e)
    in
    for k = 0 to points - 1 do
      ignore (shadow_migration ~log cfg k);
      if corrupt then begin
        (* corrupt one observable page of the rewritten image, restore it
           outside the session (whose commit check would refuse it), and
           require the shadow to localize the damage to this anchor and
           page *)
        let p = parked src_bin k in
        let image = step k "dump" (Dump.dump p) in
        let rewritten, _ =
          step k "rewrite" (Rewrite.rewrite image ~src:src_bin ~dst:dst_bin)
        in
        let pn =
          match corruption_target rewritten dst_bin with
          | Some pn -> pn
          | None -> fail k "rewritten image has no observable page to corrupt"
        in
        let contents =
          match Images.read_page rewritten pn with
          | Some s -> Bytes.of_string s
          | None -> fail k "page 0x%x vanished from the rewritten image" pn
        in
        let off = 64 in
        Bytes.set contents off
          (Char.chr (Char.code (Bytes.get contents off) lxor 0x5a));
        let evil = Images.write_page rewritten pn (Bytes.to_string contents) in
        let q = step k "restore" (Restore.restore evil dst_bin) in
        let o = Replayer.shadow ~log ~from_point:k q in
        (match o.Replayer.ro_divergence with
        | None -> fail k "corrupted restore went undetected by the shadow"
        | Some d ->
          if d.Replayer.dv_point <> k then
            fail k "corruption injected at point %d but localized at %d" k
              d.Replayer.dv_point;
          if not (List.exists (fun (_, p') -> p' = pn) d.Replayer.dv_pages) then
            fail k "divergence report does not name the corrupted page 0x%x" pn;
          incr corrupted;
          reports := Replayer.outcome_to_string o :: !reports)
      end
    done;
    { sr_app = c.Link.cp_app;
      sr_src = src;
      sr_dst = dst;
      sr_points = points;
      sr_clean = points;
      sr_corrupted = !corrupted;
      sr_divergences = List.rev !reports }
  in
  guarded c ~src ~dst go
