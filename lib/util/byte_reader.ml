exception Malformed of string

type t = { src : string; mutable pos : int }

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let left r = String.length r.src - r.pos

(* Claim [n] bytes at the cursor, returning their offset. *)
let take r n =
  if n > left r then
    malformed "truncated at byte %d: need %d, %d left" r.pos n (left r);
  let off = r.pos in
  r.pos <- off + n;
  off

let decode s f =
  let r = { src = s; pos = 0 } in
  let v = f r in
  if left r > 0 then malformed "%d trailing bytes after byte %d" (left r) r.pos;
  v

let u8 r = Bytebuf.get_u8 r.src (take r 1)
let u32 r = Bytebuf.get_u32 r.src (take r 4)
let s32 r = let v = u32 r in if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v
let i64 r = Bytebuf.get_i64 r.src (take r 8)

let str r =
  let n = u32 r in
  String.sub r.src (take r n) n

let list r f =
  let n = u32 r in
  if n > left r then malformed "list of %d elements with %d bytes left" n (left r);
  List.init n (fun _ -> f r)
