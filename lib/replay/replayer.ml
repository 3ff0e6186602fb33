open Dapper_isa
open Dapper_binary
open Dapper_machine
module Monitor = Dapper.Monitor
module Unwind = Dapper.Unwind
module Dump = Dapper_criu.Dump
module Trace = Dapper_obs.Trace
module Bytebuf = Dapper_util.Bytebuf
module Derr = Dapper_util.Dapper_error

type divergence = {
  dv_point : int;
  dv_tid : int option;
  dv_kind : string;
  dv_what : string;
  dv_frames_at : int;
  dv_frames : string list;
  dv_pages : (string * int) list;
}

let divergence_to_string d =
  Printf.sprintf "first divergence at eqpoint %d%s [%s]: %s" d.dv_point
    (match d.dv_tid with None -> "" | Some tid -> Printf.sprintf " tid %d" tid)
    d.dv_kind d.dv_what

let divergence_report d =
  let b = Buffer.create 256 in
  Buffer.add_string b (divergence_to_string d);
  if d.dv_pages <> [] then begin
    Buffer.add_string b "\n  diverging pages:";
    List.iter
      (fun (kind, pn) -> Buffer.add_string b (Printf.sprintf " %s:0x%x" kind pn))
      d.dv_pages
  end;
  if d.dv_frames <> [] then begin
    Buffer.add_string b
      (if d.dv_frames_at = d.dv_point then "\n  recorded frames at that anchor:"
       else
         Printf.sprintf "\n  recorded frames at the last anchor (eqpoint %d):"
           d.dv_frames_at);
    List.iter (fun f -> Buffer.add_string b (Printf.sprintf "\n    %s" f)) d.dv_frames
  end;
  Buffer.contents b

exception Diverge of divergence

let diverge ?tid ?frames ?(pages = []) ~point ~kind fmt =
  let frames_at, frames = Option.value frames ~default:(point, []) in
  Printf.ksprintf
    (fun what ->
      raise
        (Diverge
           { dv_point = point; dv_tid = tid; dv_kind = kind; dv_what = what;
             dv_frames_at = frames_at; dv_frames = frames; dv_pages = pages }))
    fmt

let frames_to_strings stacks =
  List.concat_map
    (fun tf ->
      List.map
        (fun f ->
          Printf.sprintf "tid %d #%d %s ep%d" tf.Log.tf_tid f.Log.fi_depth
            f.Log.fi_func f.Log.fi_ep)
        tf.Log.tf_frames)
    stacks

(* The anchor whose recorded frames a divergence at point [k] prints,
   and those frames: point [k] of the log, or the last anchor when [k] is
   past it. A divergence at the exit syscall, the exit code or the final
   state lies in the code the process ran after its last anchor. *)
let frames_at (log : Log.t) k =
  let at = min k (Log.points log - 1) in
  match Log.point log at with
  | eq -> (at, frames_to_strings eq.Log.eq_stacks)
  | exception Log.Log_error _ -> (at, [])

(* ----- what a recorder writes at an anchor ----- *)

(* Per-page digests a process would record right now, in [Log] form. *)
let pages_of (p : Process.t) =
  List.map
    (fun (kind, pn, digest) ->
      { Log.pd_kind = Process.vma_kind_name kind; pd_page = pn; pd_digest = digest })
    (Process.observe_pages p)

(* Diff the recorded per-page digests against the live process:
   (kind, page) pairs present on one side only or with unequal digests. *)
let page_delta (eq : Log.eqpoint) (p : Process.t) =
  let live = pages_of p in
  let key pd = (pd.Log.pd_kind, pd.Log.pd_page) in
  let find side pd =
    List.find_opt (fun o -> key o = key pd) side
  in
  let changed side other =
    List.filter_map
      (fun pd ->
        match find other pd with
        | Some o when Int64.equal o.Log.pd_digest pd.Log.pd_digest -> None
        | _ -> Some (key pd))
      side
  in
  List.sort_uniq compare (changed eq.Log.eq_pages live @ changed live eq.Log.eq_pages)

(* The frames of a quiescent process: its dump unwound with its
   binary's stack maps, threads in tid order. *)
let stacks_of ~index (p : Process.t) =
  let bin = p.Process.binary in
  match Dump.dump p with
  | Error e ->
    diverge ~point:index ~kind:"crash" "dump at the anchor failed: %s"
      (Derr.to_string e)
  | Ok image ->
    (match
       Unwind.unwind_all image (Stackmap_index.handle bin.Binary.bin_stackmaps)
         ~anchors:bin.Binary.bin_anchors
     with
    | Error e ->
      diverge ~point:index ~kind:"crash" "unwind at the anchor failed: %s"
        (Derr.to_string e)
    | Ok ts ->
      List.map
        (fun t ->
          { Log.tf_tid = t.Unwind.ts_tid;
            tf_frames =
              List.mapi
                (fun i f ->
                  { Log.fi_func = f.Unwind.fr_func.Stackmap.fm_name;
                    fi_ep = f.Unwind.fr_ep.Stackmap.ep_id;
                    fi_depth = i })
                t.Unwind.ts_frames })
        (List.sort (fun a b -> compare a.Unwind.ts_tid b.Unwind.ts_tid) ts))

(* The [Log.eqpoint] a recorder writes for a quiescent process: observed
   digests, stdout prefix, per-page digests and per-thread frames.
   [stacks] is false after exit (nothing left to unwind). *)
let eqpoint_of ~stacks ~index (p : Process.t) =
  let sn = Process.observe p in
  { Log.eq_index = index;
    eq_data = sn.Process.sn_data;
    eq_heap = sn.Process.sn_heap;
    eq_tls = sn.Process.sn_tls;
    eq_brk = sn.Process.sn_brk;
    eq_threads = sn.Process.sn_threads;
    eq_stdout_len = String.length sn.Process.sn_stdout;
    eq_stdout_fnv = Bytebuf.fnv64 sn.Process.sn_stdout;
    eq_stacks = (if stacks then stacks_of ~index p else []);
    eq_pages = pages_of p }

(* ----- comparing a live process against a recorded anchor ----- *)

(* The digest compare every walk makes. [prefix_len] is the stdout the
   recorded run had already produced when this process started with an
   empty buffer (0 from load, the migration point's [eq_stdout_len] for
   a restored twin). *)
let compare_point ~(log : Log.t) ~prefix_len (eq : Log.eqpoint) (p : Process.t) =
  let k = eq.Log.eq_index in
  let fail ?pages kind fmt =
    diverge ~point:k ~kind ~frames:(frames_at log k) ?pages fmt
  in
  let sn = Process.observe p in
  let check name want got =
    if not (Int64.equal want got) then
      fail ~pages:(page_delta eq p) "snapshot" "%s digest %016Lx, log recorded %016Lx"
        name got want
  in
  check "data" eq.Log.eq_data sn.Process.sn_data;
  check "heap" eq.Log.eq_heap sn.Process.sn_heap;
  check "tls" eq.Log.eq_tls sn.Process.sn_tls;
  if not (Int64.equal eq.Log.eq_brk sn.Process.sn_brk) then
    fail "snapshot" "brk 0x%Lx, log recorded 0x%Lx" sn.Process.sn_brk eq.Log.eq_brk;
  if eq.Log.eq_threads <> sn.Process.sn_threads then
    fail "snapshot" "%d live threads, log recorded %d" sn.Process.sn_threads
      eq.Log.eq_threads;
  let live = prefix_len + String.length sn.Process.sn_stdout in
  if live <> eq.Log.eq_stdout_len then
    fail "stdout" "stdout is %d bytes (%d new), log recorded %d" live
      (String.length sn.Process.sn_stdout) eq.Log.eq_stdout_len;
  if live > String.length log.Log.lg_stdout then
    fail "log" "anchor records %d stdout bytes, the log holds %d" live
      (String.length log.Log.lg_stdout);
  let want = String.sub log.Log.lg_stdout prefix_len (live - prefix_len) in
  if not (String.equal want sn.Process.sn_stdout) then
    fail "stdout" "stdout bytes differ from the recorded prefix (first %d bytes)" live

(* What a same-ISA replay from load adds: the anchor the recorder would
   write here ([index], [stacks] as in {!eqpoint_of}) must equal the
   recorded one field for field — frames and per-page digests beyond
   the digest compare. *)
let compare_exact ~(log : Log.t) ~index ~stacks (eq : Log.eqpoint) (p : Process.t) =
  let live = eqpoint_of ~stacks ~index p in
  let fail ?pages fmt =
    diverge ~point:index ~kind:"snapshot" ~frames:(frames_at log index) ?pages fmt
  in
  if live.Log.eq_stacks <> eq.Log.eq_stacks then
    fail "live frames [%s] differ from the recorded ones"
      (String.concat "; " (frames_to_strings live.Log.eq_stacks));
  if live.Log.eq_pages <> eq.Log.eq_pages then
    fail ~pages:(page_delta eq p) "per-page digests differ from the recorded ones";
  if live <> eq then
    fail "anchor %d stdout digest %016Lx, log recorded anchor %d %016Lx"
      live.Log.eq_index live.Log.eq_stdout_fnv eq.Log.eq_index eq.Log.eq_stdout_fnv

(* ----- the log cursor: validate / substitute / skip ----- *)

type cursor = {
  mutable cur : Log.entry list;  (** remaining entries, program order *)
  strict : bool;   (** same-ISA: scheduler slices must match too *)
  log : Log.t;
  mutable next_point : int;      (** index of the next expected anchor *)
  mutable validated : int;
  mutable substituted : int;
  mutable sched_checked : int;
}

(* Drop entries the current replay mode does not reproduce: scheduler
   slices on a cross-ISA replay, arrival draws always (they belong to
   the load plane, not the process). *)
let rec settle c =
  match c.cur with
  | (Log.Sched _ :: rest) when not c.strict -> c.cur <- rest; settle c
  | Log.Arrival _ :: rest -> c.cur <- rest; settle c
  | _ -> ()

let frames_here c = frames_at c.log c.next_point

let cursor_syscall c ~tid ~sys v =
  settle c;
  match c.cur with
  | Log.Syscall { sc_tid; sc_sys; sc_ret } :: rest
    when sc_tid = tid && String.equal sc_sys sys ->
    c.cur <- rest;
    if String.equal sys "clock" then begin
      c.substituted <- c.substituted + 1;
      sc_ret
    end
    else if Int64.equal sc_ret v then begin
      c.validated <- c.validated + 1;
      v
    end
    else
      diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
        "syscall %s returned %Ld, log recorded %Ld" sys v sc_ret
  | e :: _ ->
    diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
      "executed syscall %s (tid %d) -> %Ld where the log has: %s" sys tid v
      (Log.entry_to_string e)
  | [] ->
    diverge ~tid ~point:c.next_point ~kind:"syscall" ~frames:(frames_here c)
      "executed syscall %s (tid %d) past the end of the log" sys tid

let cursor_sched c ~tid ~steps =
  if c.strict then begin
    settle c;
    match c.cur with
    | Log.Sched { sd_tid; sd_steps } :: rest when sd_tid = tid && sd_steps = steps
      ->
      c.cur <- rest;
      c.sched_checked <- c.sched_checked + 1
    | e :: _ ->
      diverge ~tid ~point:c.next_point ~kind:"sched" ~frames:(frames_here c)
        "scheduler ran tid %d for %d instructions where the log has: %s" tid
        steps (Log.entry_to_string e)
    | [] ->
      diverge ~tid ~point:c.next_point ~kind:"sched" ~frames:(frames_here c)
        "scheduler slice (tid %d, %d instructions) past the end of the log" tid
        steps
  end

(* Consume the anchor the walk just paused at, the cursor's next one. *)
let cursor_eqpoint c =
  let k = c.next_point in
  settle c;
  match c.cur with
  | Log.Eqpoint eq :: rest when eq.Log.eq_index = k ->
    c.cur <- rest;
    c.next_point <- k + 1;
    eq
  | e :: _ ->
    diverge ~point:k ~kind:"log" ~frames:(frames_here c)
      "paused at equivalence point %d where the log has: %s" k
      (Log.entry_to_string e)
  | [] ->
    diverge ~point:k ~kind:"log" ~frames:(frames_here c)
      "paused at equivalence point %d past the end of the log" k

(* Position the cursor just past anchor [k] and return that anchor:
   everything before it belongs to the recorded prefix a process parked
   there inherited. *)
let cursor_seek c k =
  let rec drop = function
    | Log.Eqpoint eq :: rest when eq.Log.eq_index = k ->
      c.cur <- rest;
      c.next_point <- k + 1;
      eq
    | _ :: rest -> drop rest
    | [] -> diverge ~point:k ~kind:"log" "log has no equivalence point %d" k
  in
  drop c.cur

(* ----- the walk both recording and validation drive -----

   Drive the process with [Monitor.request_pause] only — never
   [run_to_completion], whose larger budget chunks would slice the
   scheduler differently — so the [Sched] entry stream is a pure
   function of the walk. [on_point] fires at each pause (process
   quiescent, anchor index given); the walk resumes afterwards. *)

let walk ~on_point p =
  let rec go k =
    match Monitor.request_pause p ~budget:Monitor.default_budget with
    | Ok _ ->
      on_point k;
      Monitor.resume p;
      go (k + 1)
    | Error Derr.Process_exited -> Ok k
    | Error e -> Error e
  in
  go 0

(* ----- recording ----- *)

let record (bin : Binary.t) =
  Trace.with_span ~cat:"replay" "record"
    ~args:[ ("app", bin.Binary.bin_app); ("arch", Arch.name bin.Binary.bin_arch) ]
    (fun cl ->
      let p = Process.load bin in
      let entries = ref [] in
      let push e = entries := e :: !entries in
      p.Process.nondet <-
        Some
          { Process.nd_syscall =
              (fun ~tid ~sys v ->
                push (Log.Syscall { sc_tid = tid; sc_sys = sys; sc_ret = v });
                v);
            nd_sched =
              (fun ~tid ~steps ->
                push (Log.Sched { sd_tid = tid; sd_steps = steps })) };
      match
        walk p ~on_point:(fun k ->
            push (Log.Eqpoint (eqpoint_of ~stacks:true ~index:k p)))
      with
      | exception Diverge d -> Error (divergence_to_string d)
      | Error e -> Error (Printf.sprintf "recording walk failed: %s" (Derr.to_string e))
      | Ok k -> (
        p.Process.nondet <- None;
        match (p.Process.crash, p.Process.exit_code) with
        | Some c, _ ->
          Error
            (Printf.sprintf "recorded process crashed at pc 0x%Lx: %s"
               c.Process.cr_pc c.Process.cr_reason)
        | None, None -> Error "recorded process neither exited nor crashed"
        | None, Some exit ->
          let log =
            { Log.lg_version = Log.version;
              lg_app = bin.Binary.bin_app;
              lg_arch = bin.Binary.bin_arch;
              lg_entries = List.rev !entries;
              lg_exit = exit;
              lg_stdout = Process.stdout_contents p;
              lg_final = eqpoint_of ~stacks:false ~index:k p }
          in
          Trace.add_arg cl "points" (string_of_int k);
          Trace.add_arg cl "entries"
            (string_of_int (List.length log.Log.lg_entries));
          Ok log))

(* ----- the validating walk ----- *)

type outcome = {
  ro_app : string;
  ro_arch : Arch.t;
  ro_from : int option;
  ro_points : int;
  ro_validated : int;
  ro_substituted : int;
  ro_sched_checked : int;
  ro_divergence : divergence option;
}

let outcome_to_string o =
  let what =
    match o.ro_from with
    | None -> Printf.sprintf "replay of %s" o.ro_app
    | Some k -> Printf.sprintf "shadow replay of %s from eqpoint %d" o.ro_app k
  in
  let head =
    Printf.sprintf
      "%s on %s: %s\n  %d anchors compared, %d syscalls validated, %d clock \
       results substituted"
      what (Arch.name o.ro_arch)
      (match o.ro_divergence with None -> "MATCH" | Some _ -> "DIVERGED")
      o.ro_points o.ro_validated o.ro_substituted
  in
  match o.ro_divergence with
  | None -> head
  | Some d -> head ^ "\n" ^ divergence_report d

(* Drive [p] to exit against [log]: every syscall result validated
   (clock substituted), every anchor compared, then the end-of-run
   check — crash, unconsumed entries, exit code, final state. [p] is
   freshly loaded ([from] = [None]) or parked at recorded anchor [k]
   ([Some k]), which is compared first. Scheduler slices are validated
   on the recording's ISA; a replay from load there also compares every
   field the recorder wrote. *)
let validate ~(log : Log.t) ~from (p : Process.t) =
  let strict = Arch.equal p.Process.arch log.Log.lg_arch in
  let exact = strict && from = None in
  Trace.with_span ~cat:"replay" "replay"
    ~args:
      [ ("app", log.Log.lg_app); ("arch", Arch.name p.Process.arch);
        ("from", match from with None -> "load" | Some k -> string_of_int k);
        ("mode", if strict then "same-isa" else "cross-isa") ]
    (fun cl ->
      let c =
        { cur = log.Log.lg_entries; strict; log; next_point = 0; validated = 0;
          substituted = 0; sched_checked = 0 }
      in
      let compared = ref 0 in
      let run () =
        let app = p.Process.binary.Binary.bin_app in
        if exact && not (String.equal app log.Log.lg_app) then
          diverge ~point:0 ~kind:"log" ~frames:(frames_at log 0)
            "replaying %s, log recorded %s" app log.Log.lg_app;
        (* the recorded stdout [p] did not print itself: all of it at a
           restored twin's anchor, none for a source resumed in place *)
        let prefix_len =
          match from with
          | None -> 0
          | Some k ->
            let eq = cursor_seek c k in
            let prefix_len =
              max 0 (eq.Log.eq_stdout_len - String.length (Process.stdout_contents p))
            in
            compare_point ~log ~prefix_len eq p;
            incr compared;
            prefix_len
        in
        p.Process.nondet <-
          Some
            { Process.nd_syscall = (fun ~tid ~sys v -> cursor_syscall c ~tid ~sys v);
              nd_sched = (fun ~tid ~steps -> cursor_sched c ~tid ~steps) };
        let walked =
          Fun.protect
            ~finally:(fun () -> p.Process.nondet <- None)
            (fun () ->
              walk p ~on_point:(fun _ ->
                  let eq = cursor_eqpoint c in
                  compare_point ~log ~prefix_len eq p;
                  if exact then
                    compare_exact ~log ~index:eq.Log.eq_index ~stacks:true eq p;
                  incr compared))
        in
        let point = c.next_point in
        let fail ?tid kind fmt =
          diverge ?tid ~point ~kind ~frames:(frames_at log point) fmt
        in
        (match walked with
        | Error e -> fail "pause" "walk failed: %s" (Derr.to_string e)
        | Ok _ -> ());
        (match p.Process.crash with
        | Some cr ->
          fail ~tid:cr.Process.cr_tid "crash" "process crashed at pc 0x%Lx: %s"
            cr.Process.cr_pc cr.Process.cr_reason
        | None -> ());
        settle c;
        (match c.cur with
        | e :: _ ->
          fail "log" "process exited with unconsumed log entries, next: %s"
            (Log.entry_to_string e)
        | [] -> ());
        (match p.Process.exit_code with
        | None -> fail "exit" "process finished without an exit code"
        | Some exit when not (Int64.equal exit log.Log.lg_exit) ->
          fail "exit" "exit code %Ld, log recorded %Ld" exit log.Log.lg_exit
        | Some _ -> ());
        compare_point ~log ~prefix_len log.Log.lg_final p;
        if exact then compare_exact ~log ~index:point ~stacks:false log.Log.lg_final p
      in
      let divergence =
        match run () with
        | () -> None
        | exception Diverge d ->
          Trace.add_arg cl "divergence" d.dv_what;
          Some d
      in
      Trace.add_arg cl "points" (string_of_int !compared);
      { ro_app = log.Log.lg_app;
        ro_arch = p.Process.arch;
        ro_from = from;
        ro_points = !compared;
        ro_validated = c.validated;
        ro_substituted = c.substituted;
        ro_sched_checked = c.sched_checked;
        ro_divergence = divergence })

let replay ~log bin = validate ~log ~from:None (Process.load bin)

let shadow ~log ~from_point p = validate ~log ~from:(Some from_point) p
