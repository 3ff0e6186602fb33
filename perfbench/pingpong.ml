(* pingpong: a closed loop with one migration in flight. Live copies of
   programs of differing image size and thread count hop x86-64 ->
   aarch64 -> x86-64 ..., a short seeded instruction gap between hops,
   eager scp and lazy page-server (drained at commit) mixed by the seed.
   The binary pairs repeat, so plan caches run warm. *)

open Dapper_isa
open Dapper_util
open Dapper_machine
open Dapper
open Common

(* Images of 50-207 KiB; serial and 4-thread; npb-cg.A drains ~74k
   instructions per pause, the others under 1.2k. *)
let programs = [ "npb-cg.A"; "nginx"; "blackscholes"; "streamcluster" ]

(* Hops per round, round-robin over the copies: the p95 then has 10 hops
   beyond it. *)
let hops = 200

(* A program copy in flight. [v_before] holds the stdout of the hops
   already migrated away from. *)
type visit = {
  v_prog : program;
  mutable v_proc : Process.t;
  mutable v_arch : Arch.t;
  v_before : Buffer.t;
  mutable v_retired : int64;  (* instructions of those earlier hops *)
}

(* The seed fixes the whole round: program order, each copy's starting
   point, and every hop's gap and transport, so every round repeats the
   same hops. Per hop, [mig_s] holds the migration's times and [hop_s]
   those of gap plus migration; [instrs] holds the instructions each
   hop retired, and [outs] each copy's stdout at the end of the first
   round. *)
type t = {
  progs : program array;
  starts : float array;
  gaps : int array;
  lazies : bool array;
  mig_s : (int, (float * float) list) Hashtbl.t;
  hop_s : (int, (float * float) list) Hashtbl.t;
  instrs : float array;
  mutable modeled_ms : float list;
  mutable outs : string array;
}

let prepare ~seed =
  let rng = rng ~seed "pingpong" in
  let progs = Array.of_list (List.map reference programs) in
  Rng.shuffle rng progs;
  { progs;
    starts = Array.map (fun _ -> uniform rng 0.05 0.15) progs;
    gaps = Array.init hops (fun _ -> 1_000 + Rng.int rng 9_000);
    lazies = Array.init hops (fun _ -> Rng.bool rng);
    mig_s = Hashtbl.create hops;
    hop_s = Hashtbl.create hops;
    instrs = Array.make hops nan;
    modeled_ms = [];
    outs = [||] }

(* Start a copy on x86-64 and run it to [frac] of its native length. *)
let start prog frac =
  let p = Process.load prog.compiled.Link.cp_x86 in
  let point = int_of_float (frac *. Int64.to_float prog.ref_instrs) in
  ignore (interp p (fun () -> Process.run p ~max_instrs:point));
  { v_prog = prog; v_proc = p; v_arch = Arch.X86_64; v_before = Buffer.create 256;
    v_retired = 0L }

let stdout_so_far v = Buffer.contents v.v_before ^ Process.stdout_contents v.v_proc

let finish v =
  let p = v.v_proc in
  let r = interp p (fun () -> Process.run_to_completion p ~fuel) in
  note_decode_cache p;
  outcome
    (output_ok v.v_prog ~before:(Buffer.contents v.v_before) p r)
    "pingpong: %s output differs from its native run" v.v_prog.name

(* Past 85% of its native length a copy is finished and checked, and a
   fresh copy of the program takes its place. *)
let worn v =
  Int64.to_float (Int64.add v.v_retired v.v_proc.Process.total_instrs)
  > 0.85 *. Int64.to_float v.v_prog.ref_instrs

let renew st visits i =
  finish visits.(i);
  visits.(i) <- start visits.(i).v_prog st.starts.(i)

let hop st visits j =
  let i = j mod Array.length visits in
  let v = visits.(i) in
  let before = Int64.add v.v_retired v.v_proc.Process.total_instrs in
  let step () =
    match interp v.v_proc (fun () -> Process.run v.v_proc ~max_instrs:st.gaps.(j)) with
    | Process.Exited_run _ | Process.Crashed _ -> None
    | Process.Progress | Process.Idle ->
      let src = v.v_proc in
      let mig () = migrate v.v_prog.compiled ~src:v.v_arch ~lazy_:st.lazies.(j) src in
      Some (src, time_step st.mig_s j mig)
  in
  match time_step st.hop_s j step with
  | None -> renew st visits i
  | Some (_, Error e) ->
    outcome false "pingpong: %s migration: %s" v.v_prog.name (Dapper_error.to_string e)
  | Some (src, Ok m) ->
    Buffer.add_string v.v_before (Process.stdout_contents src);
    v.v_retired <- Int64.add v.v_retired src.Process.total_instrs;
    v.v_proc <- m.m_out.Session.r_process;
    v.v_arch <- other v.v_arch;
    st.modeled_ms <- Session.total_ms m.m_out.Session.r_times :: st.modeled_ms;
    (* Gap and drain: every round retires the same count on hop [j]. *)
    let after = Int64.add v.v_retired v.v_proc.Process.total_instrs in
    let retired = Int64.to_float (Int64.sub after before) in
    if Float.is_nan st.instrs.(j) then begin
      outcome true "";
      st.instrs.(j) <- retired
    end
    else
      outcome (retired = st.instrs.(j))
        "pingpong: hop %d retired %.0f instructions, %.0f in the first round" j retired
        st.instrs.(j);
    if worn v then renew st visits i

(* A round starts fresh copies and makes every hop. The first round
   finishes each copy and checks it against its native run; a later
   round must leave every copy with the first round's stdout, so it
   needs no finishing. *)
let round st =
  let visits = Array.mapi (fun i prog -> start prog st.starts.(i)) st.progs in
  for j = 0 to hops - 1 do
    hop st visits j
  done;
  if st.outs = [||] then begin
    st.outs <- Array.map stdout_so_far visits;
    Array.iter finish visits
  end
  else
    Array.iteri
      (fun i v ->
        note_decode_cache v.v_proc;
        outcome (stdout_so_far v = st.outs.(i)) "pingpong: %s stdout differs from the first round"
          v.v_prog.name)
      visits

(* Over the hops of a round, each at its step time (see Common): the
   migration's median and p95, and the instructions of all hops over their
   gap-plus-migration time. A hop whose copy ended in its gap has no
   migration. *)
let metrics st =
  let mig_ms = List.map (fun s -> s *. 1e3) (step_times st.mig_s) in
  let instrs =
    Array.fold_left (fun acc n -> if Float.is_nan n then acc else acc +. n) 0.0 st.instrs
  in
  [ ("migration_ms_p50", quantile 0.5 mig_ms);
    ("migration_ms_p95", quantile 0.95 mig_ms);
    ("modeled_migration_ms", mean st.modeled_ms);
    ("minstr_per_s", instrs /. sum_step_times st.hop_s /. 1e6) ]
