(* Shared plumbing: outcome tallies, seeded inputs, per-layer counters,
   reference programs and one traced migration. *)

open Dapper_isa
open Dapper_util
open Dapper_machine
open Dapper_net
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let fuel = 400_000_000

(* Paper-magnitude byte counts for the modeled clock, as in the figures. *)
let bytes_scale = 1500.0

(* --plant-mismatch: every reference stdout gets a wrong byte, so every
   output check must fail. The benchmark's own test uses it. *)
let plant_mismatch = ref false

(* {1 Outcomes} *)

let attempted = ref 0
let failed = ref 0

(* Count one operation; [ok = false] counts it failed and says why. *)
let outcome ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: FAILED " ^ msg)
      end)
    fmt

(* {1 Seeded inputs} *)

(* Each activity draws from its own stream, so its inputs depend only on
   the seed and not on which other activities share the process. *)
let rng ~seed tag = Rng.create (Int64.of_int ((seed * 1_000_003) + Hashtbl.hash tag))

let uniform rng lo hi = lo +. ((hi -. lo) *. Rng.float rng)

let elapsed_s t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9

(* Linear-interpolated quantile; [nan] on no samples. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* {1 Reference-speed timing}

   On a shared host other tenants slow the benchmark's memory-bound work
   by up to 1.7x, in streaks of a second to several minutes, and a streak
   can cover whole runs. A fixed reference kernel, random reads and
   writes over a 4 MiB buffer steered by lookups in a 50k-key table, is
   slowed by the same streaks, by most of the same share. So the kernel
   runs alongside the work, and every timed step is reported at reference
   speed: its wall time times [ref_kernel_us] over the kernel's median
   time around it. A change to the program moves the step and not the
   kernel, so it moves the reported time by the same share. *)

let kernel_words = 1 lsl 19
let kernel_mem = Bytes.make (8 * kernel_words) 'a'

let kernel_tbl =
  let h = Hashtbl.create 65536 in
  for i = 0 to 49_999 do
    Hashtbl.replace h (i * 7919) i
  done;
  h

(* The kernel's walk goes on where the last call left it, so no call
   finds the lines of the one before still in the cache. *)
let kernel_state = ref 12345

let kernel () =
  let x = ref !kernel_state and acc = ref 0 in
  for _ = 1 to 1000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let v = Hashtbl.find kernel_tbl (!x mod 50_000 * 7919) in
    let off = (!x lxor v) land ((8 * kernel_words) - 1) in
    acc := !acc + Char.code (Bytes.unsafe_get kernel_mem off);
    Bytes.unsafe_set kernel_mem ((off + 64) land ((8 * kernel_words) - 1))
      (Char.unsafe_chr (!acc land 0x7f))
  done;
  kernel_state := !x

(* About the kernel's median time in the runs of RUNS.md. It only sets
   the scale: a reported time reads as the time the host would take if
   the kernel took this long there. *)
let ref_kernel_us = 250.0

(* Kernel times of the current round or set-up pass in us, newest first,
   how many, and every kernel time of the run. *)
let kernel_us = ref []
let kernel_n = ref 0
let all_kernel_us = ref []

let sample_kernel () =
  let t0 = Span.now_ns () in
  kernel ();
  let us = elapsed_s t0 *. 1e6 in
  kernel_us := us :: !kernel_us;
  incr kernel_n;
  all_kernel_us := us :: !all_kernel_us

let burst () =
  for _ = 1 to 16 do
    sample_kernel ()
  done

(* Each activity repeats identical rounds of work and times every step
   under a key that names the same step in every round. The kernel runs
   once before each step, outside any step's timing, so its samples
   follow the host through the round. A step's time waits in [pending],
   with the number of the sample taken before it, until its round ends;
   then its key gets the time and the kernel's speed around it. *)
let pending : (int * (float -> unit)) list ref = ref []
let depth = ref 0

let time_step tbl key f =
  if !depth = 0 then sample_kernel ();
  let at = !kernel_n - 1 in
  incr depth;
  let t0 = Span.now_ns () in
  let r = Fun.protect f ~finally:(fun () -> decr depth) in
  let s = elapsed_s t0 in
  pending :=
    ( at,
      fun kernel ->
        Hashtbl.replace tbl key ((s, kernel) :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) )
    :: !pending;
  r

(* Run [f] between two kernel bursts, and return the factor that brings
   the wall times measured in it to reference speed. *)
let at_reference_speed f =
  kernel_us := [];
  kernel_n := 0;
  burst ();
  let r = f () in
  burst ();
  (r, ref_kernel_us /. quantile 0.5 !kernel_us)

(* A round of [f]. Each step's speed is that of the nine kernel samples
   nearest to it, the bursts included: a round takes a second or more,
   and the host can change speed within it. *)
let timed_round f =
  pending := [];
  let (), _ = at_reference_speed f in
  let samples = Array.of_list (List.rev !kernel_us) in
  let near i =
    let lo = max 0 (i - 4) and hi = min (Array.length samples - 1) (i + 4) in
    quantile 0.5 (Array.to_list (Array.sub samples lo (hi - lo + 1)))
  in
  List.iter (fun (i, settle) -> settle (near i)) !pending;
  pending := []

(* A step's time over the rounds: the median of its reference-speed
   times in the third of its rounds in which the kernel ran fastest
   around it. The kernel follows most of the host's slowing, but not in
   the same proportion as the program, so the less the host slowed a
   round, the less the correction can be off. A throughput is the work
   of one round over the sum of its steps' times. *)
let step_time samples =
  let quick = quantile (1.0 /. 3.0) (List.map snd samples) in
  quantile 0.5
    (List.filter_map
       (fun (s, kernel) -> if kernel <= quick then Some (s *. ref_kernel_us /. kernel) else None)
       samples)

let step_times tbl = Hashtbl.fold (fun _ samples acc -> step_time samples :: acc) tbl []
let sum_step_times tbl = List.fold_left ( +. ) 0.0 (step_times tbl)

(* {1 Per-layer counters}

   Sums and samples keyed by per-layer metric name, one set per activity:
   rounds of different activities interleave, and each round counts into
   its own activity's set. They are filled in both modes; only a traced
   run reports them. *)

type counters = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable instrs : int64;  (* retired inside benchmark-driven Process.run calls *)
}

let fresh_counters () = { sums = Hashtbl.create 64; samples = Hashtbl.create 16; instrs = 0L }

let current = ref (fresh_counters ())

let add name v =
  let c = !current in
  Hashtbl.replace c.sums name (v +. Option.value ~default:0.0 (Hashtbl.find_opt c.sums name))

let sum name = Option.value ~default:0.0 (Hashtbl.find_opt !current.sums name)

let push name v =
  let c = !current in
  Hashtbl.replace c.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt c.samples name))

let pushed name = List.rev (Option.value ~default:[] (Hashtbl.find_opt !current.samples name))

(* Value of a counter in the program's Metrics registry (0 if unused). *)
let registry_count name =
  match Dapper_obs.Metrics.find name with
  | Some (Dapper_obs.Metrics.Counter c) -> float_of_int (Dapper_obs.Metrics.counter_value c)
  | _ -> 0.0

(* Registry counters an activity reports, as the sum of their deltas over
   its own calls, under their registry names. *)
let registry_names =
  [ "transport.tx.attempts"; "session.precopy.rounds"; "session.precopy.pages" ]

(* Run [f] counting into [c]. *)
let counting c f =
  let base = List.map (fun n -> (n, registry_count n)) registry_names in
  let saved = !current in
  current := c;
  Fun.protect f ~finally:(fun () ->
      List.iter (fun (n, b) -> add n (registry_count n -. b)) base;
      current := saved)

(* {1 Interpretation} *)

let interp (p : Process.t) f =
  Span.record "process.run" (fun () ->
      let before = p.Process.total_instrs in
      let r = f () in
      let c = !current in
      c.instrs <- Int64.add c.instrs (Int64.sub p.Process.total_instrs before);
      r)

(* The decode-cache size of a process the benchmark is done running: it
   finished, or it was handed to Loadgen.run. *)
let note_decode_cache (p : Process.t) =
  push "process.decode_cache_entries" (float_of_int (Hashtbl.length p.Process.decode_cache))

(* {1 Reference programs} *)

type program = {
  name : string;
  compiled : Link.compiled;
  ref_stdout : string;
  ref_exit : int64;
  ref_instrs : int64;  (* native x86-64 instruction count *)
}

(* Compile and record the native x86-64 run every migrated run of the
   program is checked against. The compile is what Registry.compiled does,
   minus its cache, so every set-up pass pays it; Registry.find returns a
   fresh spec, so the IR module is built again too. *)
let native name =
  let sp = Registry.find name in
  let compiled =
    Span.record "registry.compiled" (fun () ->
        Link.compile ~app:sp.Registry.sp_name (Lazy.force sp.Registry.sp_modul))
  in
  let p = Process.load compiled.Link.cp_x86 in
  match interp p (fun () -> Process.run_to_completion p ~fuel) with
  | Process.Exited_run code ->
    note_decode_cache p;
    let out = Process.stdout_contents p in
    { name; compiled; ref_exit = code; ref_instrs = p.Process.total_instrs;
      ref_stdout = (if !plant_mismatch then out ^ "#" else out) }
  | _ -> failwith (name ^ ": native reference run did not exit")

(* Programs referenced so far in this set-up pass: two activities using
   one program share its reference run. *)
let references : (string, program) Hashtbl.t = Hashtbl.create 16

let reference name =
  match Hashtbl.find_opt references name with
  | Some prog -> prog
  | None ->
    let prog = native name in
    Hashtbl.replace references name prog;
    prog

let is_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  n <= m && String.sub s (m - n) n = suffix

(* The migrated run's output checks: the native exit code, the stdouts of
   all hops concatenated equal the native stdout, and the last hop's
   stdout is a suffix of it. *)
let output_ok prog ~before (p : Process.t) result =
  let last = Process.stdout_contents p in
  (match result with Process.Exited_run code -> code = prog.ref_exit | _ -> false)
  && before ^ last = prog.ref_stdout
  && is_suffix ~suffix:last prog.ref_stdout

(* {1 Migration} *)

let node_of = function Arch.X86_64 -> Node.xeon | Arch.Aarch64 -> Node.rpi
let other = function Arch.X86_64 -> Arch.Aarch64 | Arch.Aarch64 -> Arch.X86_64

(* Eager scp, or lazy page-server with every outstanding page drained at
   commit so the destination owes the source nothing afterwards. *)
let session_config c ~src ~lazy_ =
  let dst = other src in
  let cfg =
    { (Session.default_config ~src_bin:(Link.binary_for c src) ~dst_bin:(Link.binary_for c dst))
      with
      Session.cfg_src_node = node_of src;
      cfg_dst_node = node_of dst;
      cfg_recode_node = node_of src;
      cfg_bytes_scale = bytes_scale }
  in
  if lazy_ then
    { cfg with
      Session.cfg_transport = Transport.page_server Dapper_net.Link.infiniband;
      cfg_commit_drain = true }
  else cfg

(* Session.run spelled out stage by stage, one span per stage, in both
   modes, so traced and untraced runs migrate through the same code. *)
let run_session cfg p =
  Span.record "session" (fun () ->
      let ( let* ) = Result.bind in
      let stage name f = Span.record ("session." ^ name) f in
      let* s = stage "pause" (fun () -> Session.pause (Session.start cfg p)) in
      let* s = stage "dump" (fun () -> Session.dump s) in
      add "dump.pages" (float_of_int s.Session.s_state.Session.sd_dump.Dapper_criu.Dump.pages_dumped);
      let* s = stage "recode" (fun () -> Session.recode s) in
      let* s = stage "transfer" (fun () -> Session.transfer s) in
      let restored = Dapper_criu.Dump.stats_of s.Session.s_state.Session.sx_image in
      add "restore.pages" (float_of_int restored.Dapper_criu.Dump.pages_dumped);
      let* s = stage "restore" (fun () -> Session.restore s) in
      let* s = stage "commit" (fun () -> Session.commit s) in
      Ok (Session.finish s))

type migration = { m_out : Session.outcome; m_wall_ms : float }

(* One migration of [p] off [src]: its outcome and wall time. *)
let migrate c ~src ~lazy_ p =
  let cfg = session_config c ~src ~lazy_ in
  let t0 = Span.now_ns () in
  let r = run_session cfg p in
  let wall_ms = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e6 in
  match r with
  | Error e -> Error e
  | Ok o ->
    let rw = o.Session.r_rewrite in
    add "pause.instrs_drained" (Int64.to_float o.Session.r_pause.Monitor.ps_instrs_drained);
    add "recode.frames" (float_of_int rw.Rewrite.st_frames);
    add "recode.values" (float_of_int rw.Rewrite.st_values);
    add "recode.ptrs_translated" (float_of_int rw.Rewrite.st_ptrs_translated);
    add "recode.plan_hits" (float_of_int rw.Rewrite.st_plan_hits);
    add "recode.plan_misses" (float_of_int rw.Rewrite.st_plan_misses);
    add "recode.index_lookups" (float_of_int rw.Rewrite.st_index_lookups);
    add "transfer.image_bytes" (float_of_int o.Session.r_image_bytes);
    add "commit.pages_drained" (float_of_int o.Session.r_drained);
    Ok { m_out = o; m_wall_ms = wall_ms }

let deadline_after seconds = Int64.add (Span.now_ns ()) (Int64.of_float (seconds *. 1e9))
