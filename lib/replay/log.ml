open Dapper_isa
open Dapper_proto
module Bytebuf = Dapper_util.Bytebuf

type frame_info = { fi_func : string; fi_ep : int; fi_depth : int }
type thread_frames = { tf_tid : int; tf_frames : frame_info list }
type page_digest = { pd_kind : string; pd_page : int; pd_digest : int64 }

type eqpoint = {
  eq_index : int;
  eq_data : int64;
  eq_heap : int64;
  eq_tls : int64;
  eq_brk : int64;
  eq_threads : int;
  eq_stdout_len : int;
  eq_stdout_fnv : int64;
  eq_stacks : thread_frames list;
  eq_pages : page_digest list;
}

type entry =
  | Syscall of { sc_tid : int; sc_sys : string; sc_ret : int64 }
  | Sched of { sd_tid : int; sd_steps : int }
  | Arrival of { ar_ms : float }
  | Eqpoint of eqpoint

type t = {
  lg_version : int;
  lg_app : string;
  lg_arch : Arch.t;
  lg_entries : entry list;
  lg_exit : int64;
  lg_stdout : string;
  lg_final : eqpoint;
}

exception Log_error of string

let log_error fmt = Printf.ksprintf (fun s -> raise (Log_error s)) fmt

let version = 1
let file_name = "replay.img"

let points t =
  List.fold_left
    (fun n e -> match e with Eqpoint _ -> n + 1 | _ -> n)
    0 t.lg_entries

let point t k =
  let rec go = function
    | [] -> log_error "log has no equivalence point %d" k
    | Eqpoint eq :: _ when eq.eq_index = k -> eq
    | _ :: rest -> go rest
  in
  if k < 0 then log_error "negative equivalence point %d" k;
  go t.lg_entries

(* ----- protobuf codecs -----

   Outer message:
     1 varint  version
     2 delim   app
     3 varint  arch (0 = x86_64, 1 = aarch64)
     4 varint  entry count
     5 fixed64 FNV-1a checksum of the serialized entry stream (field 6)
     6 delim   entry stream (a field list of its own)
     7 delim   final eqpoint message
     8 fixed64 exit code
     9 delim   full stdout

   Entry stream fields, one per entry in program order:
     1 msg syscall { 1 tid, 2 sys, 3 ret (fixed64) }
     2 msg sched   { 1 tid, 2 steps }
     3 msg arrival { 1 ms bits (fixed64) }
     4 msg eqpoint { 1 index, 2..5 data/heap/tls/brk (fixed64),
                     6 threads, 7 stdout_len, 8 stdout_fnv (fixed64),
                     9 rep. thread { 1 tid, 2 rep. frame
                       { 1 func, 2 ep, 3 depth } },
                     10 rep. page { 1 kind, 2 page, 3 digest (fixed64) } } *)

let arch_code = function Arch.X86_64 -> 0L | Arch.Aarch64 -> 1L

let arch_of_code = function
  | 0L -> Arch.X86_64
  | 1L -> Arch.Aarch64
  | n -> log_error "unknown arch code %Ld" n

let encode_frame f =
  [ Proto.v_str 1 f.fi_func; Proto.v_int 2 (Int64.of_int f.fi_ep);
    Proto.v_int 3 (Int64.of_int f.fi_depth) ]

let decode_frame fs =
  { fi_func = Proto.get_str fs 1;
    fi_ep = Int64.to_int (Proto.get_int fs 2);
    fi_depth = Int64.to_int (Proto.get_int fs 3) }

let encode_eqpoint eq =
  [ Proto.v_int 1 (Int64.of_int eq.eq_index);
    Proto.v_fix 2 eq.eq_data;
    Proto.v_fix 3 eq.eq_heap;
    Proto.v_fix 4 eq.eq_tls;
    Proto.v_fix 5 eq.eq_brk;
    Proto.v_int 6 (Int64.of_int eq.eq_threads);
    Proto.v_int 7 (Int64.of_int eq.eq_stdout_len);
    Proto.v_fix 8 eq.eq_stdout_fnv ]
  @ List.map
      (fun tf ->
        Proto.v_msg 9
          (Proto.v_int 1 (Int64.of_int tf.tf_tid)
           :: List.map (fun f -> Proto.v_msg 2 (encode_frame f)) tf.tf_frames))
      eq.eq_stacks
  @ List.map
      (fun pd ->
        Proto.v_msg 10
          [ Proto.v_str 1 pd.pd_kind; Proto.v_int 2 (Int64.of_int pd.pd_page);
            Proto.v_fix 3 pd.pd_digest ])
      eq.eq_pages

let decode_eqpoint fs =
  { eq_index = Int64.to_int (Proto.get_int fs 1);
    eq_data = Proto.get_fix fs 2;
    eq_heap = Proto.get_fix fs 3;
    eq_tls = Proto.get_fix fs 4;
    eq_brk = Proto.get_fix fs 5;
    eq_threads = Int64.to_int (Proto.get_int fs 6);
    eq_stdout_len = Int64.to_int (Proto.get_int fs 7);
    eq_stdout_fnv = Proto.get_fix fs 8;
    eq_stacks =
      List.map
        (fun tfs ->
          { tf_tid = Int64.to_int (Proto.get_int tfs 1);
            tf_frames = List.map decode_frame (Proto.get_all_msgs tfs 2) })
        (Proto.get_all_msgs fs 9);
    eq_pages =
      List.map
        (fun ps ->
          { pd_kind = Proto.get_str ps 1;
            pd_page = Int64.to_int (Proto.get_int ps 2);
            pd_digest = Proto.get_fix ps 3 })
        (Proto.get_all_msgs fs 10) }

let encode_entry = function
  | Syscall { sc_tid; sc_sys; sc_ret } ->
    Proto.v_msg 1
      [ Proto.v_int 1 (Int64.of_int sc_tid); Proto.v_str 2 sc_sys;
        Proto.v_fix 3 sc_ret ]
  | Sched { sd_tid; sd_steps } ->
    Proto.v_msg 2
      [ Proto.v_int 1 (Int64.of_int sd_tid);
        Proto.v_int 2 (Int64.of_int sd_steps) ]
  | Arrival { ar_ms } -> Proto.v_msg 3 [ Proto.v_fix 1 (Int64.bits_of_float ar_ms) ]
  | Eqpoint eq -> Proto.v_msg 4 (encode_eqpoint eq)

let decode_entry { Proto.tag; payload } =
  let msg () =
    match payload with
    | Proto.Delim s -> Proto.decode s
    | _ -> log_error "entry %d is not a message" tag
  in
  match tag with
  | 1 ->
    let fs = msg () in
    Syscall
      { sc_tid = Int64.to_int (Proto.get_int fs 1);
        sc_sys = Proto.get_str fs 2;
        sc_ret = Proto.get_fix fs 3 }
  | 2 ->
    let fs = msg () in
    Sched
      { sd_tid = Int64.to_int (Proto.get_int fs 1);
        sd_steps = Int64.to_int (Proto.get_int fs 2) }
  | 3 -> Arrival { ar_ms = Int64.float_of_bits (Proto.get_fix (msg ()) 1) }
  | 4 -> Eqpoint (decode_eqpoint (msg ()))
  | n -> log_error "unknown entry kind %d" n

let encode t =
  let body = Proto.encode (List.map encode_entry t.lg_entries) in
  Proto.encode
    [ Proto.v_int 1 (Int64.of_int t.lg_version);
      Proto.v_str 2 t.lg_app;
      Proto.v_int 3 (arch_code t.lg_arch);
      Proto.v_int 4 (Int64.of_int (List.length t.lg_entries));
      Proto.v_fix 5 (Bytebuf.fnv64 body);
      Proto.v_str 6 body;
      Proto.v_msg 7 (encode_eqpoint t.lg_final);
      Proto.v_fix 8 t.lg_exit;
      Proto.v_str 9 t.lg_stdout ]

(* The recorded stdout (field 9) against the anchors that claim its
   prefixes, in one pass: each anchor's prefix must not shrink or run past
   the stdout, and its digest is the previous prefix's digest continued
   over the new bytes. The final anchor's prefix is the whole stdout. *)
let check_stdout entries final stdout =
  let n = String.length stdout in
  let check (len, h) eq =
    if eq.eq_stdout_len < len || eq.eq_stdout_len > n then
      log_error "anchor %d claims %d bytes of stdout (%d before it, %d recorded)"
        eq.eq_index eq.eq_stdout_len len n;
    let h = Bytebuf.fnv64_sub h stdout len (eq.eq_stdout_len - len) in
    if not (Int64.equal h eq.eq_stdout_fnv) then
      log_error "anchor %d's stdout digest does not match the recorded stdout"
        eq.eq_index;
    (eq.eq_stdout_len, h)
  in
  let last =
    List.fold_left
      (fun acc e -> match e with Eqpoint eq -> check acc eq | _ -> acc)
      (0, Bytebuf.fnv64 "") entries
  in
  let len, _ = check last final in
  if len <> n then log_error "final anchor claims %d of %d bytes of stdout" len n

let decode s =
  let fs = try Proto.decode s with Proto.Decode_error e -> log_error "%s" e in
  try
    let v = Int64.to_int (Proto.get_int fs 1) in
    if v <> version then log_error "unsupported log version %d (want %d)" v version;
    let body = Proto.get_str fs 6 in
    let want = Proto.get_fix fs 5 in
    let got = Bytebuf.fnv64 body in
    if not (Int64.equal want got) then
      log_error "entry-stream checksum mismatch (%016Lx recorded, %016Lx computed)"
        want got;
    let entries = List.map decode_entry (Proto.decode body) in
    let count = Int64.to_int (Proto.get_int fs 4) in
    if List.length entries <> count then
      log_error "entry count mismatch (%d recorded, %d decoded)" count
        (List.length entries);
    let stdout = Proto.get_str fs 9 in
    let final = decode_eqpoint (Proto.get_msg fs 7) in
    check_stdout entries final stdout;
    { lg_version = v;
      lg_app = Proto.get_str fs 2;
      lg_arch = arch_of_code (Proto.get_int fs 3);
      lg_entries = entries;
      lg_exit = Proto.get_fix fs 8;
      lg_stdout = stdout;
      lg_final = final }
  with Proto.Decode_error e -> log_error "%s" e

let fingerprint t = Bytebuf.fnv64 (encode t)

let entry_to_string = function
  | Syscall { sc_tid; sc_sys; sc_ret } ->
    Printf.sprintf "syscall tid=%d %s -> %Ld" sc_tid sc_sys sc_ret
  | Sched { sd_tid; sd_steps } ->
    Printf.sprintf "sched tid=%d steps=%d" sd_tid sd_steps
  | Arrival { ar_ms } -> Printf.sprintf "arrival %.6f ms" ar_ms
  | Eqpoint eq ->
    Printf.sprintf "eqpoint %d data=%016Lx heap=%016Lx tls=%016Lx brk=0x%Lx \
                    threads=%d stdout=%dB"
      eq.eq_index eq.eq_data eq.eq_heap eq.eq_tls eq.eq_brk eq.eq_threads
      eq.eq_stdout_len

let summary t =
  let sys, sched, arr = (ref 0, ref 0, ref 0) in
  List.iter
    (fun e ->
      match e with
      | Syscall _ -> incr sys
      | Sched _ -> incr sched
      | Arrival _ -> incr arr
      | Eqpoint _ -> ())
    t.lg_entries;
  Printf.sprintf
    "%s on %s: %d entries (%d syscalls, %d sched, %d arrivals, %d eqpoints), \
     exit %Ld, %dB stdout, fingerprint %016Lx"
    t.lg_app (Arch.name t.lg_arch)
    (List.length t.lg_entries)
    !sys !sched !arr (points t) t.lg_exit
    (String.length t.lg_stdout) (fingerprint t)
