open Dapper_isa

type ty = I64 | F64 | Ptr

let ty_equal (a : ty) b = a = b

type vreg = int
type label = int
type slot_id = int

type value =
  | Vreg of vreg
  | Imm of int64
  | Fimm of float
  | Global_addr of string
  | Func_addr of string

type callee = Direct of string | Indirect of value

type instr =
  | Binop of Minstr.binop * vreg * value * value
  | Unop of Minstr.unop * vreg * value
  | Load of vreg * value
  | Store of value * value
  | Load8 of vreg * value
  | Store8 of value * value
  | Slot_addr of vreg * slot_id
  | Slot_load of vreg * slot_id
  | Slot_store of value * slot_id
  | Tls_addr of vreg * string
  | Call of vreg option * callee * value list

and terminator =
  | Ret of value option
  | Br of label
  | Cbr of value * label * label

type block = { blabel : label; instrs : instr list; term : terminator }

type slot = {
  sl_id : slot_id;
  sl_name : string;
  sl_size : int;
  sl_ty : ty;
  sl_addr_taken : bool;
}

type func = {
  fname : string;
  fparams : (string * ty) list;
  fslots : slot list;
  fblocks : block array;
  fvreg_tys : ty array;
}

type global = { g_name : string; g_size : int; g_init : string option }
type tls_var = { t_name : string; t_size : int }

type modul = {
  m_name : string;
  m_funcs : func list;
  m_globals : global list;
  m_tls : tls_var list;
}

let vreg_count f = Array.length f.fvreg_tys

(* ----- validation ----- *)

let value_vregs = function
  | Vreg v -> [ v ]
  | Imm _ | Fimm _ | Global_addr _ | Func_addr _ -> []

let instr_uses = function
  | Binop (_, _, a, b) -> value_vregs a @ value_vregs b
  | Unop (_, _, a) -> value_vregs a
  | Load (_, a) | Load8 (_, a) -> value_vregs a
  | Store (v, a) | Store8 (v, a) -> value_vregs v @ value_vregs a
  | Slot_load _ -> []
  | Slot_store (v, _) -> value_vregs v
  | Slot_addr _ | Tls_addr _ -> []
  | Call (_, callee, args) ->
    let c = match callee with Direct _ -> [] | Indirect v -> value_vregs v in
    c @ List.concat_map value_vregs args

let instr_def = function
  | Binop (_, d, _, _) | Unop (_, d, _) | Load (d, _) | Load8 (d, _)
  | Slot_addr (d, _) | Slot_load (d, _) | Tls_addr (d, _) -> Some d
  | Store _ | Store8 _ | Slot_store _ -> None
  | Call (d, _, _) -> d

let term_uses = function
  | Ret (Some v) -> value_vregs v
  | Ret None -> []
  | Br _ -> []
  | Cbr (v, _, _) -> value_vregs v

let term_succs = function
  | Ret _ -> []
  | Br l -> [ l ]
  | Cbr (_, a, b) -> [ a; b ]

let max_params = 6

let validate ?(externs = []) m =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let func_names = List.map (fun f -> f.fname) m.m_funcs in
  let global_names = List.map (fun g -> g.g_name) m.m_globals in
  let tls_names = List.map (fun t -> t.t_name) m.m_tls in
  let check_func f =
    let nblocks = Array.length f.fblocks in
    let nvregs = Array.length f.fvreg_tys in
    let nslots = List.length f.fslots in
    if List.length f.fparams > max_params then
      err "%s: more than %d parameters" f.fname max_params;
    if nblocks = 0 then err "%s: no blocks" f.fname;
    List.iteri
      (fun i s ->
        if s.sl_id <> i then err "%s: slot %d has id %d" f.fname i s.sl_id;
        if s.sl_size <= 0 || s.sl_size mod 8 <> 0 then
          err "%s: slot %s size %d not a positive multiple of 8" f.fname s.sl_name s.sl_size)
      f.fslots;
    if List.length f.fparams > nslots then
      err "%s: fewer slots than parameters" f.fname;
    let check_value where = function
      | Vreg v when v < 0 || v >= nvregs -> err "%s/%s: vreg %d out of range" f.fname where v
      | Global_addr g when not (List.mem g global_names) ->
        err "%s/%s: unknown global %s" f.fname where g
      | Func_addr g when not (List.mem g func_names) ->
        err "%s/%s: unknown function %s" f.fname where g
      | Vreg _ | Imm _ | Fimm _ | Global_addr _ | Func_addr _ -> ()
    in
    Array.iteri
      (fun bi b ->
        if b.blabel <> bi then err "%s: block %d has label %d" f.fname bi b.blabel;
        List.iter
          (fun i ->
            List.iter (fun v -> check_value (string_of_int bi) (Vreg v)) (instr_uses i);
            (match instr_def i with
             | Some d when d < 0 || d >= nvregs ->
               err "%s/%d: def vreg %d out of range" f.fname bi d
             | Some _ | None -> ());
            match i with
            | Slot_addr (_, s) | Slot_load (_, s) | Slot_store (_, s)
              when s < 0 || s >= nslots ->
              err "%s/%d: slot id %d out of range" f.fname bi s
            | Tls_addr (_, t) when not (List.mem t tls_names) ->
              err "%s/%d: unknown tls var %s" f.fname bi t
            | Call (_, Direct callee, args) ->
              (match List.assoc_opt callee externs with
               | Some arity ->
                 if List.length args <> arity then
                   err "%s/%d: call to extern %s with %d args, expected %d" f.fname bi
                     callee (List.length args) arity
               | None ->
                 if not (List.mem callee func_names) then
                   err "%s/%d: call to unknown function %s" f.fname bi callee
                 else begin
                   let target = List.find (fun g -> g.fname = callee) m.m_funcs in
                   if List.length args <> List.length target.fparams then
                     err "%s/%d: call to %s with %d args, expected %d" f.fname bi callee
                       (List.length args) (List.length target.fparams)
                 end)
            | Call (_, Indirect v, args) ->
              check_value (string_of_int bi) v;
              if List.length args > max_params then
                err "%s/%d: indirect call with too many args" f.fname bi
            | Binop _ | Unop _ | Load _ | Store _ | Load8 _ | Store8 _
            | Slot_addr _ | Slot_load _ | Slot_store _ | Tls_addr _ -> ())
          b.instrs;
        List.iter (fun v -> check_value "term" (Vreg v)) (term_uses b.term);
        List.iter
          (fun l -> if l < 0 || l >= nblocks then err "%s/%d: branch to bad label %d" f.fname bi l)
          (term_succs b.term))
      f.fblocks
  in
  List.iter check_func m.m_funcs;
  let dup names kind =
    let sorted = List.sort compare names in
    let rec go = function
      | a :: b :: _ when a = b -> err "duplicate %s %S" kind a
      | _ :: rest -> go rest
      | [] -> ()
    in
    go sorted
  in
  dup func_names "function";
  dup global_names "global";
  dup tls_names "tls var";
  List.rev !errors

(* ----- liveness: classic backward dataflow over vregs ----- *)

module Iset = Set.Make (Int)

let liveness_sets f =
  let nblocks = Array.length f.fblocks in
  let live_in = Array.make nblocks Iset.empty in
  let live_out = Array.make nblocks Iset.empty in
  let block_transfer bi out =
    let b = f.fblocks.(bi) in
    let acc = List.fold_left (fun s v -> Iset.add v s) out (term_uses b.term) in
    List.fold_left
      (fun acc i ->
        let acc = match instr_def i with Some d -> Iset.remove d acc | None -> acc in
        List.fold_left (fun s v -> Iset.add v s) acc (instr_uses i))
      acc (List.rev b.instrs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = nblocks - 1 downto 0 do
      let out =
        List.fold_left
          (fun s succ -> Iset.union s live_in.(succ))
          Iset.empty
          (term_succs f.fblocks.(bi).term)
      in
      let inn = block_transfer bi out in
      if not (Iset.equal out live_out.(bi) && Iset.equal inn live_in.(bi)) then begin
        live_out.(bi) <- out;
        live_in.(bi) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

let block_live_in f =
  let live_in, _ = liveness_sets f in
  Array.map Iset.elements live_in

let liveness f =
  let nblocks = Array.length f.fblocks in
  let _, live_out = liveness_sets f in
  (* Per-instruction live-after sets, walking each block backward. *)
  Array.init nblocks (fun bi ->
      let b = f.fblocks.(bi) in
      let n = List.length b.instrs in
      let result = Array.make n [] in
      let after_term = live_out.(bi) in
      let live = List.fold_left (fun s v -> Iset.add v s) after_term (term_uses b.term) in
      (* live is now the set live after the last instr *)
      let rec go idx live = function
        | [] -> ()
        | i :: rest ->
          result.(idx) <- Iset.elements live;
          let live = match instr_def i with Some d -> Iset.remove d live | None -> live in
          let live = List.fold_left (fun s v -> Iset.add v s) live (instr_uses i) in
          go (idx - 1) live rest
      in
      go (n - 1) live (List.rev b.instrs);
      result)
