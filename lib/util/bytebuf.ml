type t = Buffer.t

let create n = Buffer.create n
let contents = Buffer.contents

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  add_u8 b v;
  add_u8 b (v lsr 8)

let add_u32 b v =
  add_u16 b v;
  add_u16 b (v lsr 16)

let add_i64 b v =
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let add_bytes = Buffer.add_string

let get_u8 s off = Char.code s.[off]
let get_u16 s off = get_u8 s off lor (get_u8 s (off + 1) lsl 8)
let get_u32 s off = get_u16 s off lor (get_u16 s (off + 2) lsl 16)

let get_i64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 s (off + i)))
  done;
  !v

(* FNV-1a (64-bit): the digest of [Process.observe] and the replay log,
   whose pins are absolute values.

   The kernel is one loop over unchecked reads with the accumulator in
   a local ref that no closure captures, so ocamlopt keeps it unboxed:
   a digest allocates only its boxed result, whatever the length. *)
let fnv64_offset = 0xcbf29ce484222325L
let fnv64_prime = 0x100000001b3L
let[@inline] fnv64_mix h x = Int64.mul (Int64.logxor h x) fnv64_prime

let fnv64_sub h s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Bytebuf.fnv64_sub";
  let h = ref h in
  for i = off to off + len - 1 do
    h := fnv64_mix !h (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  !h

let fnv64_fold h s = fnv64_sub h s 0 (String.length s)
let fnv64 s = fnv64_fold fnv64_offset s

(* The transport digest: FNV-1a's step [h <- (h xor x) * prime] taken
   over one 8-byte word at a time, in the host's byte order, then over
   the tail bytes one at a time. With the prime odd, each step is
   injective in [x] and bijective in [h], so any change confined to one
   word changes the digest. The words are read unchecked and unboxed,
   so a digest allocates only its boxed result, as [fnv64_sub] does. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let word64_fold h s =
  let words = String.length s / 8 in
  let h = ref h in
  for k = 0 to words - 1 do
    h := fnv64_mix !h (get64u s (8 * k))
  done;
  fnv64_sub !h s (8 * words) (String.length s - (8 * words))

let word64 parts = List.fold_left word64_fold fnv64_offset parts
