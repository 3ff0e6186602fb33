open Dapper_isa
open Dapper_ir

exception Clite_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Clite_error s)) fmt

(* ----- expressions ----- *)

type expr =
  | E_int of int64
  | E_flt of float
  | E_var of string
  | E_addr of string
  | E_fnptr of string
  | E_bin of Minstr.binop * expr * expr
  | E_un of Minstr.unop * expr
  | E_deref of expr * Ir.ty
  | E_idx of expr * expr
  | E_idx8 of expr * expr
  | E_call of string * expr list * Ir.ty
  | E_call_ptr of expr * expr list

let i n = E_int (Int64.of_int n)
let i64 n = E_int n
let f x = E_flt x
let v name = E_var name
let addr name = E_addr name
let fnptr name = E_fnptr name

let add a b = E_bin (Add, a, b)
let sub a b = E_bin (Sub, a, b)
let mul a b = E_bin (Mul, a, b)
let div_ a b = E_bin (Div, a, b)
let rem_ a b = E_bin (Rem, a, b)
let band a b = E_bin (And, a, b)
let bor a b = E_bin (Or, a, b)
let bxor a b = E_bin (Xor, a, b)
let shl a b = E_bin (Shl, a, b)
let shr a b = E_bin (Shr, a, b)
let neg a = E_un (Neg, a)
let bnot a = E_un (Not, a)
let eq a b = E_bin (Cmpeq, a, b)
let ne a b = E_bin (Cmpne, a, b)
let lt a b = E_bin (Cmplt, a, b)
let le a b = E_bin (Cmple, a, b)
let gt a b = E_bin (Cmpgt, a, b)
let ge a b = E_bin (Cmpge, a, b)
let fadd a b = E_bin (Fadd, a, b)
let fsub a b = E_bin (Fsub, a, b)
let fmul a b = E_bin (Fmul, a, b)
let fdiv a b = E_bin (Fdiv, a, b)
let fneg a = E_un (Fneg, a)
let flt a b = E_bin (Fcmplt, a, b)
let fle a b = E_bin (Fcmple, a, b)
let feq a b = E_bin (Fcmpeq, a, b)
let sqrt_ a = E_un (Fsqrt, a)
let i2f a = E_un (Sitofp, a)
let f2i a = E_un (Fptosi, a)
let deref p = E_deref (p, Ir.I64)
let idx p e = E_idx (p, e)
let idx8 p e = E_idx8 (p, e)
let call name args = E_call (name, args, Ir.I64)
let callf name args = E_call (name, args, Ir.F64)
let call_ptr p args = E_call_ptr (p, args)

(* ----- module builder ----- *)

type local = { l_slot : int; l_ty : Ir.ty; mutable l_addr_taken : bool; l_size : int }

type mb = {
  mb_name : string;
  mutable mb_funcs : Ir.func list;
  mutable mb_globals : Ir.global list;
  mutable mb_tls : Ir.tls_var list;
  mutable mb_strs : int;
}

type blk = { blk_label : int; mutable blk_instrs : Ir.instr list; mutable blk_term : Ir.terminator option }

type fnb = {
  fb_mb : mb;
  fb_name : string;
  fb_params : (string * Ir.ty) list;
  mutable fb_locals : (string * local) list;
  mutable fb_blocks : blk list;       (* in creation order, reversed *)
  mutable fb_cur : blk;
  mutable fb_nvregs : int;
  mutable fb_vtys : Ir.ty list;       (* reversed *)
  mutable fb_loops : (int * int) list; (* (continue target, break target) *)
}

let create name = { mb_name = name; mb_funcs = []; mb_globals = []; mb_tls = []; mb_strs = 0 }

let global mb ?init name size =
  mb.mb_globals <- { Ir.g_name = name; g_size = size; g_init = init } :: mb.mb_globals

let global_i64 mb name value =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 value;
  global mb ~init:(Bytes.to_string b) name 8

let tls_var mb name size = mb.mb_tls <- { Ir.t_name = name; t_size = size } :: mb.mb_tls

let str_lit mb s =
  let name = Printf.sprintf "__str_%d" mb.mb_strs in
  mb.mb_strs <- mb.mb_strs + 1;
  let size = (String.length s + 8 + 7) / 8 * 8 in
  global mb ~init:s name size;
  name

(* ----- builder internals ----- *)

let new_vreg b ty =
  let r = b.fb_nvregs in
  b.fb_nvregs <- r + 1;
  b.fb_vtys <- ty :: b.fb_vtys;
  r

let push b instr = b.fb_cur.blk_instrs <- instr :: b.fb_cur.blk_instrs

let new_block b =
  let label = List.length b.fb_blocks in
  let blk = { blk_label = label; blk_instrs = []; blk_term = None } in
  b.fb_blocks <- blk :: b.fb_blocks;
  blk

let terminate b term =
  match b.fb_cur.blk_term with
  | Some _ -> () (* unreachable code after break/ret: drop silently *)
  | None -> b.fb_cur.blk_term <- Some term

let switch_to b blk = b.fb_cur <- blk

let local_of b name = List.assoc_opt name b.fb_locals

let is_global b name = List.exists (fun g -> g.Ir.g_name = name) b.fb_mb.mb_globals
let is_tls b name = List.exists (fun t -> t.Ir.t_name = name) b.fb_mb.mb_tls

(* Lower an expression to an IR value, pushing instructions. *)
let rec lower b (e : expr) : Ir.value * Ir.ty =
  match e with
  | E_int n -> (Ir.Imm n, Ir.I64)
  | E_flt x -> (Ir.Fimm x, Ir.F64)
  | E_fnptr f -> (Ir.Func_addr f, Ir.Ptr)
  | E_var name ->
    (match local_of b name with
     | Some l ->
       if l.l_size > 8 then fail "%s: reading array %s as a scalar" b.fb_name name;
       let d = new_vreg b l.l_ty in
       push b (Ir.Slot_load (d, l.l_slot));
       (Ir.Vreg d, l.l_ty)
     | None ->
       if is_global b name then begin
         let d = new_vreg b Ir.I64 in
         push b (Ir.Load (d, Ir.Global_addr name));
         (Ir.Vreg d, Ir.I64)
       end
       else if is_tls b name then begin
         let a = new_vreg b Ir.Ptr in
         push b (Ir.Tls_addr (a, name));
         let d = new_vreg b Ir.I64 in
         push b (Ir.Load (d, Ir.Vreg a));
         (Ir.Vreg d, Ir.I64)
       end
       else fail "%s: unknown variable %s" b.fb_name name)
  | E_addr name ->
    (match local_of b name with
     | Some l ->
       l.l_addr_taken <- true;
       let d = new_vreg b Ir.Ptr in
       push b (Ir.Slot_addr (d, l.l_slot));
       (Ir.Vreg d, Ir.Ptr)
     | None ->
       if is_global b name then (Ir.Global_addr name, Ir.Ptr)
       else if is_tls b name then begin
         let d = new_vreg b Ir.Ptr in
         push b (Ir.Tls_addr (d, name));
         (Ir.Vreg d, Ir.Ptr)
       end
       else fail "%s: unknown variable %s" b.fb_name name)
  | E_bin (op, x, y) ->
    let vx, tx = lower b x in
    let vy, ty_ = lower b y in
    let rty : Ir.ty =
      match op with
      | Fadd | Fsub | Fmul | Fdiv -> Ir.F64
      | Cmpeq | Cmpne | Cmplt | Cmple | Cmpgt | Cmpge | Cmpult
      | Fcmpeq | Fcmplt | Fcmple -> Ir.I64
      | Add | Sub ->
        (* pointer arithmetic keeps pointerness *)
        if tx = Ir.Ptr || ty_ = Ir.Ptr then Ir.Ptr else tx
      | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar -> tx
    in
    let d = new_vreg b rty in
    push b (Ir.Binop (op, d, vx, vy));
    (Ir.Vreg d, rty)
  | E_un (op, x) ->
    let vx, tx = lower b x in
    let rty : Ir.ty =
      match op with
      | Sitofp -> Ir.F64
      | Fptosi -> Ir.I64
      | Fneg | Fsqrt -> Ir.F64
      | Neg | Not -> tx
    in
    let d = new_vreg b rty in
    push b (Ir.Unop (op, d, vx));
    (Ir.Vreg d, rty)
  | E_deref (p, ty_) ->
    let vp, _ = lower b p in
    let d = new_vreg b ty_ in
    push b (Ir.Load (d, vp));
    (Ir.Vreg d, ty_)
  | E_idx (p, e) ->
    let a, _ = lower_index_addr b p e in
    let d = new_vreg b Ir.I64 in
    push b (Ir.Load (d, a));
    (Ir.Vreg d, Ir.I64)
  | E_idx8 (p, e) ->
    let vp, _ = lower b p in
    let ve, _ = lower b e in
    let a = new_vreg b Ir.Ptr in
    push b (Ir.Binop (Add, a, vp, ve));
    let d = new_vreg b Ir.I64 in
    push b (Ir.Load8 (d, Ir.Vreg a));
    (Ir.Vreg d, Ir.I64)
  | E_call (name, args, rty) ->
    let vargs = List.map (fun a -> fst (lower b a)) args in
    let d = new_vreg b rty in
    push b (Ir.Call (Some d, Ir.Direct name, vargs));
    (Ir.Vreg d, rty)
  | E_call_ptr (p, args) ->
    let vp, _ = lower b p in
    let vargs = List.map (fun a -> fst (lower b a)) args in
    let d = new_vreg b Ir.I64 in
    push b (Ir.Call (Some d, Ir.Indirect vp, vargs));
    (Ir.Vreg d, Ir.I64)

and lower_index_addr b p e =
  let vp, _ = lower b p in
  let ve, _ = lower b e in
  let off = new_vreg b Ir.I64 in
  push b (Ir.Binop (Mul, off, ve, Ir.Imm 8L));
  let a = new_vreg b Ir.Ptr in
  push b (Ir.Binop (Add, a, vp, Ir.Vreg off));
  (Ir.Vreg a, Ir.Ptr)

(* ----- statements ----- *)

let declare b name ty size init =
  (* Redeclaring a scalar of the same shape (e.g. the same temporary name
     in two sibling loop bodies) reuses the slot, C-style block scoping
     being out of scope for this embedded frontend. *)
  let l =
    match List.assoc_opt name b.fb_locals with
    | Some l ->
      if l.l_size <> size || not (Ir.ty_equal l.l_ty ty) || size > 8 then
        fail "%s: conflicting redeclaration of %s" b.fb_name name;
      l
    | None ->
      let slot = List.length b.fb_locals in
      let l = { l_slot = slot; l_ty = ty; l_addr_taken = size > 8; l_size = size } in
      b.fb_locals <- b.fb_locals @ [ (name, l) ];
      l
  in
  match init with
  | Some e ->
    let v, _ = lower b e in
    push b (Ir.Slot_store (v, l.l_slot))
  | None -> ()

let decl b name e = declare b name Ir.I64 8 (Some e)
let declf b name e = declare b name Ir.F64 8 (Some e)
let declp b name e = declare b name Ir.Ptr 8 (Some e)
let decl_arr b name n = declare b name Ir.I64 (8 * n) None
let decl_arr_ty b name n ty = declare b name ty (8 * n) None

let set b name e =
  let v, _ = lower b e in
  match local_of b name with
  | Some l ->
    if l.l_size > 8 then fail "%s: assigning array %s" b.fb_name name;
    push b (Ir.Slot_store (v, l.l_slot))
  | None ->
    if is_global b name then push b (Ir.Store (v, Ir.Global_addr name))
    else if is_tls b name then begin
      let a = new_vreg b Ir.Ptr in
      push b (Ir.Tls_addr (a, name));
      push b (Ir.Store (v, Ir.Vreg a))
    end
    else fail "%s: unknown variable %s" b.fb_name name

let store b addr_e val_e =
  let v, _ = lower b val_e in
  let a, _ = lower b addr_e in
  push b (Ir.Store (v, a))

let store_idx b base_e idx_e val_e =
  let v, _ = lower b val_e in
  let a, _ = lower_index_addr b base_e idx_e in
  push b (Ir.Store (v, a))

let store8 b addr_e val_e =
  let v, _ = lower b val_e in
  let a, _ = lower b addr_e in
  push b (Ir.Store8 (v, a))

let store_idx8 b base_e idx_e val_e =
  let v, _ = lower b val_e in
  let vp, _ = lower b base_e in
  let ve, _ = lower b idx_e in
  let a = new_vreg b Ir.Ptr in
  push b (Ir.Binop (Add, a, vp, ve));
  push b (Ir.Store8 (v, Ir.Vreg a))

let do_ b e =
  match e with
  | E_call (name, args, _) ->
    let vargs = List.map (fun a -> fst (lower b a)) args in
    push b (Ir.Call (None, Ir.Direct name, vargs))
  | E_call_ptr (p, args) ->
    let vp, _ = lower b p in
    let vargs = List.map (fun a -> fst (lower b a)) args in
    push b (Ir.Call (None, Ir.Indirect vp, vargs))
  | _ -> ignore (lower b e)

let if_else b cond then_fn else_fn =
  let vc, _ = lower b cond in
  let then_blk = new_block b in
  let else_blk = new_block b in
  let join_blk = new_block b in
  terminate b (Ir.Cbr (vc, then_blk.blk_label, else_blk.blk_label));
  switch_to b then_blk;
  then_fn b;
  terminate b (Ir.Br join_blk.blk_label);
  switch_to b else_blk;
  else_fn b;
  terminate b (Ir.Br join_blk.blk_label);
  switch_to b join_blk

let if_ b cond then_fn = if_else b cond then_fn (fun _ -> ())

let while_ b cond body_fn =
  let cond_blk = new_block b in
  terminate b (Ir.Br cond_blk.blk_label);
  switch_to b cond_blk;
  let vc, _ = lower b cond in
  let body_blk = new_block b in
  let exit_blk = new_block b in
  terminate b (Ir.Cbr (vc, body_blk.blk_label, exit_blk.blk_label));
  switch_to b body_blk;
  b.fb_loops <- (cond_blk.blk_label, exit_blk.blk_label) :: b.fb_loops;
  body_fn b;
  b.fb_loops <- List.tl b.fb_loops;
  terminate b (Ir.Br cond_blk.blk_label);
  switch_to b exit_blk

let for_ b name lo hi body_fn =
  if local_of b name = None then decl b name lo else set b name lo;
  (* `continue` must re-run the increment, so the increment lives in its
     own block that both the body end and `continue` branch to. *)
  let cond_blk = new_block b in
  terminate b (Ir.Br cond_blk.blk_label);
  switch_to b cond_blk;
  let vc, _ = lower b (lt (v name) hi) in
  let body_blk = new_block b in
  let step_blk = new_block b in
  let exit_blk = new_block b in
  terminate b (Ir.Cbr (vc, body_blk.blk_label, exit_blk.blk_label));
  switch_to b body_blk;
  b.fb_loops <- (step_blk.blk_label, exit_blk.blk_label) :: b.fb_loops;
  body_fn b;
  b.fb_loops <- List.tl b.fb_loops;
  terminate b (Ir.Br step_blk.blk_label);
  switch_to b step_blk;
  set b name (add (v name) (i 1));
  terminate b (Ir.Br cond_blk.blk_label);
  switch_to b exit_blk

let break_ b =
  match b.fb_loops with
  | (_, exit_label) :: _ -> terminate b (Ir.Br exit_label)
  | [] -> fail "%s: break outside loop" b.fb_name

let continue_ b =
  match b.fb_loops with
  | (cont_label, _) :: _ -> terminate b (Ir.Br cont_label)
  | [] -> fail "%s: continue outside loop" b.fb_name

let ret b e =
  let v, _ = lower b e in
  terminate b (Ir.Ret (Some v))

let ret0 b = terminate b (Ir.Ret (Some (Ir.Imm 0L)))

let func mb name params body =
  let entry = { blk_label = 0; blk_instrs = []; blk_term = None } in
  let b =
    { fb_mb = mb; fb_name = name; fb_params = params; fb_locals = [];
      fb_blocks = [ entry ]; fb_cur = entry; fb_nvregs = 0; fb_vtys = [];
      fb_loops = [] }
  in
  (* Parameters become the first locals, in order. *)
  List.iter (fun (n, ty) -> declare b n ty 8 None) params;
  body b;
  terminate b (Ir.Ret (Some (Ir.Imm 0L)));
  (* Close any unterminated blocks (e.g. join blocks after a final ret). *)
  List.iter
    (fun blk -> if blk.blk_term = None then blk.blk_term <- Some (Ir.Ret (Some (Ir.Imm 0L))))
    b.fb_blocks;
  let blocks =
    List.rev b.fb_blocks
    |> List.map (fun blk ->
           { Ir.blabel = blk.blk_label; instrs = List.rev blk.blk_instrs;
             term = Option.get blk.blk_term })
    |> Array.of_list
  in
  let slots =
    List.map
      (fun (n, l) ->
        { Ir.sl_id = l.l_slot; sl_name = n; sl_size = l.l_size; sl_ty = l.l_ty;
          sl_addr_taken = l.l_addr_taken })
      b.fb_locals
  in
  let f =
    { Ir.fname = name; fparams = params; fslots = slots; fblocks = blocks;
      fvreg_tys = Array.of_list (List.rev b.fb_vtys) }
  in
  mb.mb_funcs <- f :: mb.mb_funcs

let finish mb =
  let m =
    { Ir.m_name = mb.mb_name; m_funcs = List.rev mb.mb_funcs;
      m_globals = List.rev mb.mb_globals; m_tls = List.rev mb.mb_tls }
  in
  match Ir.validate ~externs:Dapper_codegen.Runtime.externs m with
  | [] -> m
  | errs -> fail "module %s invalid:\n  %s" mb.mb_name (String.concat "\n  " errs)
