(* The JSON parser: what bench/check_bench.ml reads BENCH_RESULTS.json
   with. lib/ only prints JSON ({!Dapper_util.Json}), so its parser
   lives here, beside its one program reader. *)

open Dapper_util.Json

exception Parse_error of string

(* Recursive-descent parser over a string with a mutable cursor. *)
type cursor = { src : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') -> advance c; skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let parse_literal c lit value =
  if c.pos + String.length lit <= String.length c.src
     && String.sub c.src c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else error c (Printf.sprintf "expected %s" lit)

let parse_string_raw c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c; Buffer.contents b
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> Buffer.add_char b '"'; advance c
       | Some '\\' -> Buffer.add_char b '\\'; advance c
       | Some '/' -> Buffer.add_char b '/'; advance c
       | Some 'n' -> Buffer.add_char b '\n'; advance c
       | Some 'r' -> Buffer.add_char b '\r'; advance c
       | Some 't' -> Buffer.add_char b '\t'; advance c
       | Some 'b' -> Buffer.add_char b '\b'; advance c
       | Some 'f' -> Buffer.add_char b '\012'; advance c
       | Some 'u' ->
         advance c;
         if c.pos + 4 > String.length c.src then error c "bad \\u escape";
         let hex = String.sub c.src c.pos 4 in
         c.pos <- c.pos + 4;
         let code = int_of_string ("0x" ^ hex) in
         if code < 0x80 then Buffer.add_char b (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> error c "bad escape");
      loop ()
    | Some ch -> Buffer.add_char b ch; advance c; loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek c with
    | Some ch when is_num_char ch -> advance c; loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub c.src start (c.pos - start) in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then
    Float (float_of_string s)
  else
    match Int64.of_string_opt s with
    | Some v -> Int v
    | None -> Float (float_of_string s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> String (parse_string_raw c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string_raw c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; fields ((k, v) :: acc)
        | Some '}' -> advance c; List.rev ((k, v) :: acc)
        | _ -> error c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; List [] end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; items (v :: acc)
        | Some ']' -> advance c; List.rev (v :: acc)
        | _ -> error c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float v -> v
  | Int v -> Int64.to_float v
  | _ -> raise (Parse_error "expected float")

let to_bool = function
  | Bool v -> v
  | _ -> raise (Parse_error "expected bool")

let to_str = function
  | String v -> v
  | _ -> raise (Parse_error "expected string")

let to_list = function
  | List v -> v
  | _ -> raise (Parse_error "expected list")
