(* run-migrate-finish: the Fig. 6 scenario in a batch. Each program runs
   to a seeded point on one ISA, migrates once and finishes on the other.
   The interpreter does nearly all the work and every binary pair is
   migrated once per cycle with cold plans, so a change to the migration
   stages alone should leave this workload flat. *)

open Dapper_isa
open Dapper_util
open Dapper_machine
open Dapper
open Common

(* NPB, PARSEC and HPC, 0.6M-3.6M instructions each, so a cycle takes
   about two seconds; all but npb-ft.A and dhrystone are pingpong
   programs too. *)
let programs = [ "npb-ft.A"; "blackscholes"; "streamcluster"; "dhrystone" ]

(* The interpreter is timed in steps of this many instructions. *)
let step_instrs = 250_000

(* One program run: start on [i_src], migrate at [i_frac] of the native
   length, finish on the other ISA. *)
type item = { i_prog : program; i_src : Arch.t; i_frac : float }

(* Every cycle runs the same items, each in the same steps; [times]
   holds the times of each (item, step) and [instrs] the instructions of
   one cycle. *)
type t = {
  items : item list;
  times : (int * int, (float * float) list) Hashtbl.t;
  mutable instrs : int64;
}

let prepare ~seed =
  let rng = rng ~seed "run-migrate-finish" in
  let progs = Array.of_list (List.map reference programs) in
  Rng.shuffle rng progs;
  let items =
    List.concat_map
      (fun prog ->
        let src = if Rng.bool rng then Arch.X86_64 else Arch.Aarch64 in
        List.map
          (fun src -> { i_prog = prog; i_src = src; i_frac = uniform rng 0.1 0.75 })
          [ src; other src ])
      (Array.to_list progs)
  in
  { items; times = Hashtbl.create 256; instrs = 0L }

(* Run [p] in timed steps up to [limit] instructions in all, or to its
   end with no limit; [step] numbers the steps within the item. *)
let rec steps st ~key ~step ?limit (p : Process.t) =
  let n =
    match limit with
    | Some l -> min step_instrs (l - Int64.to_int p.Process.total_instrs)
    | None -> step_instrs
  in
  if n <= 0 then (Process.Progress, step)
  else
    let run () = interp p (fun () -> Process.run p ~max_instrs:n) in
    match time_step st.times (key, step) run with
    | Process.Progress -> steps st ~key ~step:(step + 1) ?limit p
    | r -> (r, step + 1)

(* One item, start to finish; returns the instructions retired on both
   ISAs. *)
let run_one st key it =
  Span.record "rmf.program" (fun () ->
      let prog = it.i_prog in
      let p = Process.load (Link.binary_for prog.compiled it.i_src) in
      let point = int_of_float (it.i_frac *. Int64.to_float prog.ref_instrs) in
      match steps st ~key ~step:0 ~limit:point p with
      | (Process.Progress | Process.Idle), step -> (
        let mig () = migrate prog.compiled ~src:it.i_src ~lazy_:false p in
        match time_step st.times (key, step) mig with
        | Error e ->
          outcome false "run-migrate-finish: %s migration: %s" prog.name
            (Dapper_error.to_string e);
          p.Process.total_instrs
        | Ok m ->
          let q = m.m_out.Session.r_process in
          let r, _ = steps st ~key ~step:(step + 1) q in
          note_decode_cache q;
          outcome
            (output_ok prog ~before:(Process.stdout_contents p) q r)
            "run-migrate-finish: %s output differs from its native run" prog.name;
          Int64.add p.Process.total_instrs q.Process.total_instrs)
      | (Process.Exited_run _ | Process.Crashed _), _ ->
        outcome false "run-migrate-finish: %s ended before its migration point" prog.name;
        p.Process.total_instrs)

(* A cycle starts from an empty plan cache, so every migration in it is
   cold and every cycle does the same work. *)
let round st =
  Plan_cache.clear ();
  let instrs = List.fold_left Int64.add 0L (List.mapi (run_one st) st.items) in
  if st.instrs = 0L then st.instrs <- instrs
  else
    outcome (instrs = st.instrs) "run-migrate-finish: a cycle retired %Ld instructions, the first %Ld"
      instrs st.instrs

(* Instructions (source + destination, drains included) of one cycle
   over the sum of its steps' times. *)
let metrics st =
  [ ("minstr_per_s", Int64.to_float st.instrs /. sum_step_times st.times /. 1e6) ]
