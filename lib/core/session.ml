open Dapper_util
open Dapper_binary
open Dapper_machine
open Dapper_criu
open Dapper_net
module Trace = Dapper_obs.Trace
module Metrics = Dapper_obs.Metrics

type config = {
  cfg_src_node : Node.t;
  cfg_dst_node : Node.t;
  cfg_recode_node : Node.t;
  cfg_transport : Transport.t;
  cfg_src_bin : Binary.t;
  cfg_dst_bin : Binary.t;
  cfg_bytes_scale : float;
  cfg_pause_budget : int;
  cfg_commit_drain : bool;
  cfg_fault : Fault.t option;
  cfg_pipeline : bool;
  cfg_chunk_bytes : int;
  cfg_recode_workers : int;
  cfg_recode_memo : Plan_cache.memo option;
  cfg_resident_pages : int list;
}

let default_config ~src_bin ~dst_bin =
  { cfg_src_node = Node.xeon;
    cfg_dst_node = Node.rpi;
    cfg_recode_node = Node.xeon;
    cfg_transport = Transport.scp Link.infiniband;
    cfg_src_bin = src_bin;
    cfg_dst_bin = dst_bin;
    cfg_bytes_scale = 1.0;
    cfg_pause_budget = Monitor.default_budget;
    cfg_commit_drain = false;
    cfg_fault = None;
    cfg_pipeline = false;
    cfg_chunk_bytes = 262_144;
    cfg_recode_workers = 1;
    cfg_recode_memo = None;
    cfg_resident_pages = [] }

(* Cost-model constants (see EXPERIMENTS.md, "Calibration"). *)
let checkpoint_fixed_ns = 3.0e6    (* freeze + /proc walk + image setup *)
let restore_fixed_ns = 3.0e6
let lazy_restore_ns = 8.0e6        (* paper: "takes about 8 ms" *)
let recode_item_ns = 150_000.0     (* per live value / frame on the Xeon *)
let recode_byte_ns = 2.6           (* per image byte decoded+re-encoded *)
let image_io_gbps = 24.0           (* tmpfs-backed dump/restore bandwidth *)

(* The fixed+bandwidth costs were calibrated on a specific node of the
   paper's testbed (checkpoint on the Xeon source, restore on the Pi
   destination); other nodes scale with their relative core speed. *)
let node_factor ~(anchor : Node.t) (node : Node.t) =
  anchor.n_ops_per_ns /. node.n_ops_per_ns

let checkpoint_ms ~node ~bytes =
  (checkpoint_fixed_ns +. (float_of_int bytes /. image_io_gbps)) /. 1e6
  *. node_factor ~anchor:Node.xeon node

let restore_ms ~node ~bytes =
  (restore_fixed_ns +. (float_of_int bytes /. image_io_gbps)) /. 1e6
  *. node_factor ~anchor:Node.rpi node

let lazy_restore_ms ~node =
  lazy_restore_ns /. 1e6 *. node_factor ~anchor:Node.rpi node

let recode_ns (node : Node.t) ?(workers = 1) ~bytes (stats : Rewrite.stats) =
  (* measured per-architecture recode slowdown (paper Fig. 5), independent
     of the raw execution-speed ratio *)
  let slowdown = Dapper_isa.Arch.recode_slowdown node.n_arch in
  let w = max 1 (min workers node.n_cores) in
  if w = 1 then
    (float_of_int (Rewrite.work_items stats) *. recode_item_ns
     +. (float_of_int bytes *. recode_byte_ns))
    *. slowdown
  else
    (* Work-queue critical path across [w] cores: frame/value work items
       and page-granular byte slices are pulled from a shared queue; the
       stage ends when the most-loaded worker (its ceil share) finishes.
       Pages are the byte-work unit, so below one page per worker extra
       cores buy nothing — parallel recode pays a granularity tax that a
       single worker (the exact sequential formula above) does not. *)
    let per_worker_items = (Rewrite.work_items stats + w - 1) / w in
    let pages = (bytes + Layout.page_size - 1) / Layout.page_size in
    let per_worker_pages = (pages + w - 1) / w in
    (float_of_int per_worker_items *. recode_item_ns
     +. (float_of_int (per_worker_pages * Layout.page_size) *. recode_byte_ns))
    *. slowdown

type phase_times = {
  t_checkpoint_ms : float;
  t_recode_ms : float;
  t_scp_ms : float;
  t_restore_ms : float;
}

let total_ms t = t.t_checkpoint_ms +. t.t_recode_ms +. t.t_scp_ms +. t.t_restore_ms

type stage_record = { sr_stage : Dapper_error.stage; sr_ms : float; sr_bytes : int }

let times_of_log log =
  List.fold_left
    (fun acc r ->
      match r.sr_stage with
      | Dapper_error.Pause | Dapper_error.Dump ->
        { acc with t_checkpoint_ms = acc.t_checkpoint_ms +. r.sr_ms }
      | Dapper_error.Recode -> { acc with t_recode_ms = acc.t_recode_ms +. r.sr_ms }
      | Dapper_error.Transfer -> { acc with t_scp_ms = acc.t_scp_ms +. r.sr_ms }
      | Dapper_error.Restore | Dapper_error.Commit ->
        { acc with t_restore_ms = acc.t_restore_ms +. r.sr_ms })
    { t_checkpoint_ms = 0.0; t_recode_ms = 0.0; t_scp_ms = 0.0; t_restore_ms = 0.0 }
    log

type 'st t = {
  s_cfg : config;
  s_source : Process.t;
  s_log : stage_record list;
  s_tx : Transport.tx_stats;
  s_state : 'st;
}

type ready = Ready

type paused = { sp_pause : Monitor.pause_stats }

type dumped = {
  sd_pause : Monitor.pause_stats;
  sd_image : Images.image_set;
  sd_dump : Dump.stats;
}

type evidence = {
  ev_pause : Monitor.pause_stats;
  ev_dump : Dump.stats;
  ev_rewrite : Rewrite.stats;
  ev_image_bytes : int;
}

type recoded = {
  sc_evidence : evidence;
  sc_image : Images.image_set;
  sc_wire : (string * string list) list;
}

type transferred = { sx_evidence : evidence; sx_image : Images.image_set }

type restored = {
  sf_evidence : evidence;
  sf_image : Images.image_set;
  sf_process : Process.t;
  sf_page_server : Transport.page_stats option;
  sf_lazy_pages : int list;
}

type committed = {
  sm_evidence : evidence;
  sm_image : Images.image_set;
  sm_process : Process.t;
  sm_page_server : Transport.page_stats option;
  sm_drained : int;
  sm_lazy_left : int;
}

let start cfg source =
  { s_cfg = cfg; s_source = source; s_log = [];
    s_tx = Transport.fresh_tx_stats (); s_state = Ready }

let stage_log s = List.rev s.s_log
let times s = times_of_log s.s_log
let transfer_stats s = s.s_tx

let rollback s =
  match s.s_source.Process.exit_code with
  | Some _ -> ()  (* nothing left to resume *)
  | None ->
    Trace.leaf ~cat:"session" "rollback" ~dur_ns:0.0;
    Monitor.resume s.s_source

let scaled cfg b = int_of_float (float_of_int b *. cfg.cfg_bytes_scale)

(* Advance to state [st], recording the stage's modeled cost and the
   bytes it charged for (explicit, so the overlap math and the legacy
   sequential totals reconcile from the log alone); on error, un-pause
   the source so a failed migration never strands it. *)
let step s stage ?(bytes = 0) ~ms st =
  { s with s_log = { sr_stage = stage; sr_ms = ms; sr_bytes = bytes } :: s.s_log;
    s_state = st }

let guard s f =
  match f () with
  | Ok _ as ok -> ok
  | Error _ as err ->
    rollback s;
    err

(* Wrap one staged transition in a trace span; the span only exists
   while tracing. A span's duration is the stage's charged ms — since
   the trace clock never moves backwards, a span containing charged
   sub-work (a lazy restore serving pages, a draining commit) ends at
   that sub-work's end if it exceeds the stage's own cost. *)
let staged stage f (s : _ t) =
  Trace.with_span ~cat:"session" (Dapper_error.stage_name stage) (fun cl ->
      match f s with
      | Ok s' as ok ->
        let ms = match s'.s_log with r :: _ -> r.sr_ms | [] -> 0.0 in
        Trace.set_dur cl (ms *. 1e6);
        ok
      | Error e ->
        Trace.add_arg cl "error" (Dapper_error.to_string e);
        Error e)

(* ----- iterative pre-copy ----- *)

type precopy_stats = {
  pcs_rounds : int list;
  pcs_pages_sent : int;
  pcs_ms : float;
  pcs_resident : int list;
  pcs_residual : int list;
}

(* Rounds and pages across every pre-copy, read by the wall-clock
   benchmark; each run's own are in its [precopy_stats]. *)
let m_precopy_rounds = Metrics.counter "session.precopy.rounds"
let m_precopy_pages = Metrics.counter "session.precopy.pages"

(* Pages worth shipping ahead of the blackout: everything the dump would
   carry except clean code pages, which the destination demand-loads from
   its own binary. *)
let precopy_candidate p pn =
  match Process.vma_kind_of_page p pn with
  | Some Process.Vma_code -> false
  | Some _ | None -> true

(* Iterative pre-copy over the live source: round 1 streams every
   candidate page while the process keeps serving ([advance] runs it for
   the round's wire time); each later round re-ships the pages dirtied
   during the previous round. Rounds stop when the remaining dirty set
   would fit in [downtime_budget_ms] on the wire, stops shrinking, or
   [max_rounds] is reached. The returned [pcs_resident] pages are clean
   at the destination (feed them to [cfg_resident_pages]); [pcs_residual]
   are still dirty and must move during the blackout (vanilla) or be
   demand-fetched after restore (hybrid). Dirty tracking is always
   disabled on exit, so an abandoned pre-copy leaves the source exactly
   as it was — running, untracked, unharmed. *)
let precopy cfg p ~advance ~max_rounds ~downtime_budget_ms =
  if max_rounds < 1 then invalid_arg "Session.precopy: max_rounds < 1";
  if downtime_budget_ms < 0.0 then
    invalid_arg "Session.precopy: downtime_budget_ms < 0";
  let mem = p.Process.mem in
  let transport = cfg.cfg_transport in
  let wire_ms pages =
    Transport.transfer_ns transport (scaled cfg (pages * Layout.page_size)) /. 1e6
  in
  let sent = Hashtbl.create 256 in
  let rounds = ref [] in
  let pages_sent = ref 0 and total_ms = ref 0.0 in
  Memory.track_dirty mem true;
  let residual =
    Fun.protect ~finally:(fun () -> Memory.track_dirty mem false) @@ fun () ->
    let rec go r to_send =
      let n = List.length to_send in
      let ms = wire_ms n in
      List.iter (fun pn -> Hashtbl.replace sent pn ()) to_send;
      pages_sent := !pages_sent + n;
      total_ms := !total_ms +. ms;
      rounds := n :: !rounds;
      Metrics.inc m_precopy_rounds;
      Metrics.inc m_precopy_pages ~by:n;
      Trace.leaf ~cat:"session" "precopy-round" ~dur_ns:(ms *. 1e6)
        ~args:[ ("round", string_of_int r); ("pages", string_of_int n) ];
      Memory.clear_dirty mem;
      advance ms;
      let dirty = List.filter (precopy_candidate p) (Memory.dirty_pages mem) in
      let dirty_ms = wire_ms (List.length dirty) in
      if
        dirty = [] || dirty_ms <= downtime_budget_ms || r >= max_rounds
        || List.length dirty >= n
      then dirty
      else go (r + 1) dirty
    in
    go 1 (List.filter (precopy_candidate p) (Memory.mapped_pages mem))
  in
  let residual_set = Hashtbl.create 64 in
  List.iter (fun pn -> Hashtbl.replace residual_set pn ()) residual;
  let resident =
    Hashtbl.fold
      (fun pn () acc -> if Hashtbl.mem residual_set pn then acc else pn :: acc)
      sent []
    |> List.sort Int.compare
  in
  { pcs_rounds = List.rev !rounds;
    pcs_pages_sent = !pages_sent;
    pcs_ms = !total_ms;
    pcs_resident = resident;
    pcs_residual = residual }

(* Unscaled bytes of resident pages that the dumped image also carries:
   those already crossed the wire during pre-copy rounds, so transfer
   and eager restore charge for the image minus this overlap. *)
let resident_dump_bytes cfg (is : Images.image_set) =
  List.length
    (List.filter (fun pn -> Images.Pages.mem pn is.Images.is_pages) cfg.cfg_resident_pages)
  * Layout.page_size

let pause_run (s : ready t) =
  guard s (fun () ->
      match Monitor.request_pause s.s_source ~budget:s.s_cfg.cfg_pause_budget with
      | Error _ as e -> e
      | Ok ps ->
        Ok (step s Dapper_error.Pause ~ms:0.0 { sp_pause = ps }))

let pause s = staged Dapper_error.Pause pause_run s

let dump_run (s : paused t) =
  guard s (fun () ->
      let lazy_pages = Transport.is_lazy s.s_cfg.cfg_transport in
      match Dump.dump ~lazy_pages s.s_source with
      | Error _ as e -> e
      | Ok image ->
        let st = Dump.stats_of image in
        let bytes = scaled s.s_cfg (st.Dump.pages_dumped * Layout.page_size) in
        let ms = checkpoint_ms ~node:s.s_cfg.cfg_src_node ~bytes in
        Ok
          (step s Dapper_error.Dump ~bytes ~ms
             { sd_pause = s.s_state.sp_pause; sd_image = image; sd_dump = st }))

let dump s = staged Dapper_error.Dump dump_run s

let recode_run (s : dumped t) =
  guard s (fun () ->
      let { sd_pause; sd_image; sd_dump } = s.s_state in
      let cfg = s.s_cfg in
      match
        Rewrite.rewrite ?memo:cfg.cfg_recode_memo sd_image ~src:cfg.cfg_src_bin
          ~dst:cfg.cfg_dst_bin
      with
      | Error _ as e -> e
      | Ok (image', rw) ->
        let wire = Images.to_wire image' in
        let image_bytes = Images.wire_bytes wire in
        (* Memo hits shrink the charged byte volume (and, for replayed
           threads, the work items inside [rw]); the produced image is
           byte-identical either way. *)
        let charged_bytes =
          scaled cfg (max 0 (image_bytes - rw.Rewrite.st_skipped_bytes))
        in
        let workers = max 1 (min cfg.cfg_recode_workers cfg.cfg_recode_node.Node.n_cores) in
        let ms =
          recode_ns cfg.cfg_recode_node ~workers ~bytes:charged_bytes rw /. 1e6
        in
        if Trace.enabled () && (workers > 1 || rw.Rewrite.st_skipped_bytes > 0) then
          Trace.leaf ~cat:"session" "recode-plan" ~dur_ns:0.0
            ~args:
              [ ("workers", string_of_int workers);
                ("charged_bytes", string_of_int charged_bytes);
                ("skipped_bytes", string_of_int rw.Rewrite.st_skipped_bytes);
                ("memo_thread_hits", string_of_int rw.Rewrite.st_memo_thread_hits);
                ("memo_page_hits", string_of_int rw.Rewrite.st_memo_page_hits) ];
        Ok
          (step s Dapper_error.Recode ~bytes:charged_bytes ~ms
             { sc_evidence =
                 { ev_pause = sd_pause; ev_dump = sd_dump; ev_rewrite = rw;
                   ev_image_bytes = image_bytes };
               sc_image = image';
               sc_wire = wire }))

let recode s = staged Dapper_error.Recode recode_run s

(* The recoded image crosses the wire as its named files, the page
   table's pages sent as they are: exposed file by file to the fault
   plane, checksum-verified and (under a retrying transport) retransmitted.
   What arrives is the image that was sent, so the destination takes the
   immutable image itself and nothing is serialized or re-parsed.
   Pipelined, recode streamed its output in chunks, so the stage charges
   only the makespan's excess over the recode time the previous stage
   logged, plus any fault and retry surcharge over a clean attempt: those
   hit a wire whose producer has finished. The chunks are zero-duration
   trace leaves, so the trace clock is charged once, by the wire
   attempts. *)
let transfer_run (s : recoded t) =
  guard s (fun () ->
      let { sc_evidence; sc_image; sc_wire } = s.s_state in
      let cfg = s.s_cfg in
      let transport = cfg.cfg_transport in
      let wire_bytes =
        scaled cfg
          (max 0 (sc_evidence.ev_image_bytes - resident_dump_bytes cfg sc_image))
      in
      let schedule =
        if not cfg.cfg_pipeline then None
        else
          let recode_ns =
            match s.s_log with
            | r :: _ when r.sr_stage = Dapper_error.Recode -> r.sr_ms *. 1e6
            | _ -> 0.0
          in
          Some
            (Transport.pipeline_schedule transport ~bytes:wire_bytes
               ~chunk_bytes:cfg.cfg_chunk_bytes ~recode_ns)
      in
      (match schedule with
       | Some sched when Trace.enabled () ->
         List.iter
           (fun (c : Transport.chunk) ->
             Trace.leaf ~cat:"transport" "tx-chunk" ~dur_ns:0.0
               ~args:
                 [ ("chunk", string_of_int c.ck_index);
                   ("bytes", string_of_int c.ck_bytes);
                   ("ready_ms", Printf.sprintf "%.3f" (c.ck_ready_ns /. 1e6));
                   ("start_ms", Printf.sprintf "%.3f" (c.ck_start_ns /. 1e6));
                   ("tx_ms", Printf.sprintf "%.3f" (c.ck_tx_ns /. 1e6)) ])
           sched.Transport.pp_schedule
       | _ -> ());
      match
        Transport.transmit transport ?fault:cfg.cfg_fault ~stats:s.s_tx
          ~bytes:wire_bytes sc_wire
      with
      | Error _ as e -> e
      | Ok ns ->
        let ns =
          match schedule with
          | None -> ns
          | Some sched ->
            sched.Transport.pp_exposed_ns
            +. Float.max 0.0 (ns -. Transport.transfer_ns transport wire_bytes)
        in
        Ok
          (step s Dapper_error.Transfer ~bytes:wire_bytes ~ms:(ns /. 1e6)
             { sx_evidence = sc_evidence; sx_image = sc_image }))

let transfer s = staged Dapper_error.Transfer transfer_run s

(* A copy of the paused source's page [pn]: what pre-copy made
   resident, what a lazy restore serves, and what the commit drain pulls. *)
let source_page s pn =
  Option.map Bytes.copy (Memory.page_contents s.s_source.Process.mem pn)

(* One post-copy page fetch from the paused source, accounted to [stats]:
   the lazy restore's page source (no [fault]) and the commit drain. *)
let fetch_page ?fault s stats pn =
  Transport.fetch_page s.s_cfg.cfg_transport ?fault stats
    ~page_bytes:(scaled s.s_cfg Layout.page_size) (source_page s) pn

let restore_run (s : transferred t) =
  guard s (fun () ->
      let { sx_evidence; sx_image } = s.s_state in
      let cfg = s.s_cfg in
      let lazy_pages = Transport.is_lazy cfg.cfg_transport in
      (* Injected destination failure while materializing the image. *)
      match Option.bind cfg.cfg_fault (fun f -> Fault.draw f Fault.Dest_restore) with
      | Some Fault.Crash ->
        Error (Dapper_error.Restore_failed "destination failed during restore (injected)")
      | _ ->
        let server_stats =
          if lazy_pages then Some (Transport.fresh_page_stats ()) else None
        in
        (* Without a fault plane a fetch cannot fail. *)
        let page_source =
          Option.map
            (fun stats pn -> Result.value (fetch_page s stats pn) ~default:None)
            server_stats
        in
        (match Restore.restore ?page_source sx_image cfg.cfg_dst_bin with
         | Error _ as e -> e
         | Ok q ->
           let bytes =
             if lazy_pages then 0
             else
               scaled cfg
                 (max 0 (sx_evidence.ev_image_bytes - resident_dump_bytes cfg sx_image))
           in
           let ms =
             if lazy_pages then lazy_restore_ms ~node:cfg.cfg_dst_node
             else restore_ms ~node:cfg.cfg_dst_node ~bytes
           in
           (* Hybrid pre+post-copy: pages pre-copied while the source was
              still serving are clean, so materialize them now instead of
              demand-fetching them through the page server — only the
              residual dirty set pays the post-copy fault tail. *)
           let resident = cfg.cfg_resident_pages in
           if lazy_pages && resident <> [] then
             List.iter
               (fun pn ->
                 if not (Memory.is_mapped q.Process.mem pn) then
                   Option.iter (Memory.map_page q.Process.mem pn) (source_page s pn))
               resident;
           (* owed: the lazy pages the restore did not already map, the
              resident ones and those it served itself (the
              transformation flag's page) *)
           let lazy_left =
             List.filter
               (fun pn -> not (Memory.is_mapped q.Process.mem pn))
               (Images.lazy_pages sx_image)
           in
           Ok
             (step s Dapper_error.Restore ~bytes ~ms
                { sf_evidence = sx_evidence; sf_image = sx_image; sf_process = q;
                  sf_page_server = server_stats; sf_lazy_pages = lazy_left })))

let restore s = staged Dapper_error.Restore restore_run s

(* Two-phase commit: the paused source stays resumable until the
   destination acknowledges a verified restore. The acknowledgement has
   three parts — (1) the destination survives to the ack (the fault
   plane may kill it first); (2) with [cfg_commit_drain], every
   outstanding post-copy page is pulled through the fault-aware,
   checksummed fetch path, so after commit the destination no longer
   depends on the source (a source/page-server crash mid-drain aborts
   the restore instead of stranding a half-paged process); (3) the
   destination's observable state must match the paused source, page
   by page ([Process.same_state]). Any failure rolls back to a running
   source. *)
let commit_run (s : restored t) =
  guard s (fun () ->
      let st = s.s_state in
      let cfg = s.s_cfg in
      let q = st.sf_process in
      let lazy_t = Transport.is_lazy cfg.cfg_transport in
      match Option.bind cfg.cfg_fault (fun f -> Fault.draw f Fault.Dest_restore) with
      | Some Fault.Crash ->
        Error
          (Dapper_error.Commit_failed
             "destination lost before acknowledging the restore (injected)")
      | _ ->
        let drain () =
          match st.sf_page_server with
          | Some stats when cfg.cfg_commit_drain ->
            let before_ns = stats.Transport.srv_ns in
            let rec go drained = function
              | [] -> Ok (drained, (stats.Transport.srv_ns -. before_ns) /. 1e6)
              | pn :: rest ->
                if Memory.is_mapped q.Process.mem pn then go drained rest
                else
                  (match fetch_page ?fault:cfg.cfg_fault s stats pn with
                   | Error _ as e -> e
                   | Ok None -> go drained rest
                   | Ok (Some data) ->
                     Memory.map_page q.Process.mem pn data;
                     go (drained + 1) rest)
            in
            go 0 st.sf_lazy_pages
          | _ -> Ok (0, 0.0)
        in
        (match drain () with
         | Error _ as e -> e
         | Ok (drained, drain_ms) ->
           (* Verified-restore acknowledgement: the destination's
              observable state must equal the paused source's. A
              half-paged lazy destination cannot be digested, so without
              a drain the lazy ack degrades to the restore's own
              arch/app checks. *)
           let verifiable = (not lazy_t) || cfg.cfg_commit_drain in
           if verifiable && not (Process.same_state s.s_source q) then
             Error
               (Dapper_error.Commit_failed
                  "destination state does not match the paused source")
           else
             Ok
               (step s Dapper_error.Commit ~ms:drain_ms
                  { sm_evidence = st.sf_evidence; sm_image = st.sf_image;
                    sm_process = q; sm_page_server = st.sf_page_server;
                    sm_drained = drained;
                    sm_lazy_left = List.length st.sf_lazy_pages - drained })))

let commit s = staged Dapper_error.Commit commit_run s

let rec retry ~attempts ?(should_retry = Dapper_error.retriable)
    ?(before_retry = fun () -> ()) f =
  match f () with
  | Ok _ as ok -> ok
  | Error e when attempts > 1 && should_retry e ->
    before_retry ();
    retry ~attempts:(attempts - 1) ~should_retry ~before_retry f
  | Error _ as err -> err

type outcome = {
  r_process : Process.t;
  r_times : phase_times;
  r_image_bytes : int;
  r_rewrite : Rewrite.stats;
  r_pause : Monitor.pause_stats;
  r_page_server : Transport.page_stats option;
  r_transfer : Transport.tx_stats;
  r_drained : int;
  r_dump : Dump.stats;
  r_lazy_left : int;
}

let finish (s : committed t) =
  let st = s.s_state in
  let ev = st.sm_evidence in
  { r_process = st.sm_process;
    r_times = times s;
    r_image_bytes = ev.ev_image_bytes;
    r_rewrite = ev.ev_rewrite;
    r_pause = ev.ev_pause;
    r_page_server = st.sm_page_server;
    r_transfer = s.s_tx;
    r_drained = st.sm_drained;
    r_dump = ev.ev_dump;
    r_lazy_left = st.sm_lazy_left }

let ( let* ) = Result.bind

let run s =
  let* s = pause s in
  let* s = dump s in
  let* s = recode s in
  let* s = transfer s in
  let* s = restore s in
  commit s

let migrate ?(lazy_pages = false) ?bytes_scale ?pipeline ?recode_workers ?memo
    ~src_node ~dst_node ~dst_bin ~src_bin p =
  let d = default_config ~src_bin ~dst_bin in
  let cfg =
    { d with
      cfg_src_node = src_node;
      cfg_dst_node = dst_node;
      cfg_recode_node = src_node;
      cfg_transport =
        (if lazy_pages then Transport.page_server Link.infiniband else d.cfg_transport);
      cfg_bytes_scale = Option.value ~default:d.cfg_bytes_scale bytes_scale;
      cfg_pipeline = Option.value ~default:d.cfg_pipeline pipeline;
      cfg_recode_workers = Option.value ~default:d.cfg_recode_workers recode_workers;
      cfg_recode_memo = memo }
  in
  Result.map finish (run (start cfg p))

(* ----- reports ----- *)

let cost_report r =
  let t = r.r_times in
  let rw = r.r_rewrite in
  let line =
    Printf.sprintf
      "checkpoint %.2f ms, recode %.2f ms, scp %.2f ms, restore %.2f ms, total %.2f ms \
       | plan cache %d hit%s / %d miss%s, %d index lookups, %d interval probes"
      t.t_checkpoint_ms t.t_recode_ms t.t_scp_ms t.t_restore_ms (total_ms t)
      rw.Rewrite.st_plan_hits
      (if rw.Rewrite.st_plan_hits = 1 then "" else "s")
      rw.Rewrite.st_plan_misses
      (if rw.Rewrite.st_plan_misses = 1 then "" else "es")
      rw.Rewrite.st_index_lookups rw.Rewrite.st_interval_lookups
  in
  (* Memo surfaces only when it did something, keeping the line
     byte-identical for non-memoized runs. *)
  if rw.Rewrite.st_memo_thread_hits > 0 || rw.Rewrite.st_memo_page_hits > 0 then
    line
    ^ Printf.sprintf ", memo %d thread / %d page hits (%d bytes skipped)"
        rw.Rewrite.st_memo_thread_hits rw.Rewrite.st_memo_page_hits
        rw.Rewrite.st_skipped_bytes
  else line
