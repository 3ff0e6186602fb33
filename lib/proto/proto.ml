open Dapper_util

type payload =
  | Varint of int64
  | Fixed64 of int64
  | Delim of string

type field = { tag : int; payload : payload }

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let encode_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Bytebuf.add_u8 buf byte;
      continue := false
    end
    else Bytebuf.add_u8 buf (byte lor 0x80)
  done

let decode_varint s off =
  let v = ref 0L in
  let shift = ref 0 in
  let pos = ref off in
  let continue = ref true in
  while !continue do
    if !pos >= String.length s then fail "truncated varint";
    if !shift > 63 then fail "varint too long";
    let byte = Char.code s.[!pos] in
    incr pos;
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7F)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  (!v, !pos - off)

let wire_type = function Varint _ -> 0 | Fixed64 _ -> 1 | Delim _ -> 2

let encode fields =
  let buf = Bytebuf.create 256 in
  List.iter
    (fun { tag; payload } ->
      encode_varint buf (Int64.of_int ((tag lsl 3) lor wire_type payload));
      match payload with
      | Varint v -> encode_varint buf v
      | Fixed64 v -> Bytebuf.add_i64 buf v
      | Delim s ->
        encode_varint buf (Int64.of_int (String.length s));
        Bytebuf.add_bytes buf s)
    fields;
  Bytebuf.contents buf

let decode s =
  let pos = ref 0 in
  let fields = ref [] in
  while !pos < String.length s do
    let key, n = decode_varint s !pos in
    pos := !pos + n;
    let key = Int64.to_int key in
    let tag = key lsr 3 in
    let payload =
      match key land 7 with
      | 0 ->
        let v, n = decode_varint s !pos in
        pos := !pos + n;
        Varint v
      | 1 ->
        if !pos + 8 > String.length s then fail "truncated fixed64";
        let v = Bytebuf.get_i64 s !pos in
        pos := !pos + 8;
        Fixed64 v
      | 2 ->
        let len, n = decode_varint s !pos in
        pos := !pos + n;
        (* compared as Int64: a length of 2^62 or more would wrap
           negative as an int and slip past the bound *)
        if Int64.compare len 0L < 0 then fail "negative delimited length";
        if Int64.compare len (Int64.of_int (String.length s - !pos)) > 0 then
          fail "truncated delimited field";
        let len = Int64.to_int len in
        let v = String.sub s !pos len in
        pos := !pos + len;
        Delim v
      | wt -> fail "unsupported wire type %d" wt
    in
    fields := { tag; payload } :: !fields
  done;
  List.rev !fields

let v_int tag v = { tag; payload = Varint v }
let v_fix tag v = { tag; payload = Fixed64 v }
let v_str tag s = { tag; payload = Delim s }
let v_msg tag fields = { tag; payload = Delim (encode fields) }

let find fields tag = List.find_opt (fun f -> f.tag = tag) fields

let get_int fields tag =
  match find fields tag with
  | Some { payload = Varint v; _ } -> v
  | Some _ -> fail "tag %d: wrong wire type (expected varint)" tag
  | None -> fail "missing tag %d" tag

let get_int_opt fields tag =
  match find fields tag with
  | Some { payload = Varint v; _ } -> Some v
  | Some _ -> fail "tag %d: wrong wire type (expected varint)" tag
  | None -> None

let get_fix fields tag =
  match find fields tag with
  | Some { payload = Fixed64 v; _ } -> v
  | Some _ -> fail "tag %d: wrong wire type (expected fixed64)" tag
  | None -> fail "missing tag %d" tag

let get_str fields tag =
  match find fields tag with
  | Some { payload = Delim s; _ } -> s
  | Some _ -> fail "tag %d: wrong wire type (expected delimited)" tag
  | None -> fail "missing tag %d" tag

let get_msg fields tag = decode (get_str fields tag)

let get_all_msgs fields tag =
  List.filter_map
    (fun f ->
      if f.tag = tag then
        match f.payload with
        | Delim s -> Some (decode s)
        | Varint _ | Fixed64 _ -> fail "tag %d: wrong wire type" tag
      else None)
    fields

let get_all_ints fields tag =
  List.filter_map
    (fun f ->
      if f.tag = tag then
        match f.payload with
        | Varint v -> Some v
        | Fixed64 _ | Delim _ -> fail "tag %d: wrong wire type" tag
      else None)
    fields
