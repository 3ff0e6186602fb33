(* check_exports: lint gate over lib/'s interfaces. Fails (exit 1) when a
   [val] that a lib/*/*.mli exports is read by no .ml file in lib/, bin/,
   bench/, examples/, perfbench/ or test/ other than its own module's, so
   an export nothing reads cannot creep back in. A file reads [val x] of
   module [M] where its code writes [M.x], or [A.x] for an alias
   [module A = ... M]; or, anywhere it names [x], when it opens [M] (or
   such an alias) with [open], [open!], [let open], [include] or a local
   open [M.( ... )]. A local binding or a record field that shares an
   export's name is not a read. Comments (nested) and string literals are
   blanked first, so a name only they mention is not one either. Every
   [val] is taken as its interface's own: lib/ declares no nested
   signature. On success it also counts the exports only test/ reads.
   Run it from the root of the repository. *)

let scanned = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

(* Every file under [dir], skipping hidden and build directories. *)
let rec files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if name.[0] = '.' || name.[0] = '_' then []
           else if Sys.is_directory path then files path
           else [ path ])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [s] with every comment and string literal blanked to spaces,
   newlines kept. Strings and character literals are lexed inside
   comments too, as OCaml does, so a quote or a comment delimiter there
   ends nothing. *)
let code_only s =
  let n = String.length s in
  let out = Bytes.of_string s in
  let blank i j =
    for k = i to min j n - 1 do
      if s.[k] <> '\n' then Bytes.set out k ' '
    done
  in
  let at i c = i < n && s.[i] = c in
  (* past the closing quote of a string whose body starts at [i] *)
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  (* past a quoted string [{id|...|id}] opening at [i], if one does *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if not (at !j '|') then None
    else
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n else if String.sub s k m = close then k + m else find (k + 1)
      in
      Some (find (!j + 1))
  in
  (* past a character literal opening at [i], if one does: ['x'] or an
     escape such as ['\''] or ['\065'] *)
  let char_end i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some (i + 3)
    else if at (i + 1) '\\' then
      match String.index_from_opt s (min n (i + 3)) '\'' with
      | Some k when k - i <= 6 -> Some (k + 1)
      | _ -> None
    else None
  in
  let rec comment i depth =
    if i >= n then n
    else if at i '(' && at (i + 1) '*' then comment (i + 2) (depth + 1)
    else if at i '*' && at (i + 1) ')' then
      if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if at i '"' then comment (string_end (i + 1)) depth
    else if at i '{' then comment (Option.value (quoted_end i) ~default:(i + 1)) depth
    else if at i '\'' then comment (Option.value (char_end i) ~default:(i + 1)) depth
    else comment (i + 1) depth
  in
  let rec code i =
    if i < n then
      if at i '(' && at (i + 1) '*' then (
        let j = comment (i + 2) 1 in
        blank i j;
        code j)
      else if at i '"' then (
        let j = string_end (i + 1) in
        blank i j;
        code j)
      else if at i '{' then (
        match quoted_end i with
        | Some j ->
          blank i j;
          code j
        | None -> code (i + 1))
      else if at i '\'' && not (i > 0 && is_ident s.[i - 1]) then
        code (Option.value (char_end i) ~default:(i + 1))
      else code (i + 1)
  in
  code 0;
  Bytes.to_string out

(* The identifier tokens of [s], in order, each with its offset. *)
let tokens s =
  let acc = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_ident c then (if !start < 0 then start := i)
      else if !start >= 0 then (
        acc := (!start, String.sub s !start (i - !start)) :: !acc;
        start := -1))
    s;
  if !start >= 0 then
    acc := (!start, String.sub s !start (String.length s - !start)) :: !acc;
  Array.of_list (List.rev !acc)

let words s = Array.to_list (Array.map snd (tokens s))

let is_module w = match w.[0] with 'A' .. 'Z' -> true | _ -> false

(* What one file's code reads: every [Q.x] it writes, its module
   aliases, the modules it opens, and every name in it. *)
type reads = {
  qualified : (string * string, unit) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;  (* alias -> the module it names *)
  opened : (string, unit) Hashtbl.t;
  names : (string, unit) Hashtbl.t;
}

let reads_of code =
  let n = String.length code in
  let toks = tokens code in
  let count = Array.length toks in
  let r =
    { qualified = Hashtbl.create 64; aliases = Hashtbl.create 8;
      opened = Hashtbl.create 8; names = Hashtbl.create 256 }
  in
  let stop k = fst toks.(k) + String.length (snd toks.(k)) in
  let rec skip_blank i =
    if i < n && (code.[i] = ' ' || code.[i] = '\n') then skip_blank (i + 1) else i
  in
  (* token [k + 1] follows token [k] after just a dot *)
  let dotted k =
    k + 1 < count && stop k < n && code.[stop k] = '.' && fst toks.(k + 1) = stop k + 1
  in
  (* the last module of the path that starts at token [k] *)
  let rec path_end k =
    if dotted k && is_module (snd toks.(k + 1)) then path_end (k + 1) else snd toks.(k)
  in
  Array.iteri
    (fun k (_, w) ->
      Hashtbl.replace r.names w ();
      let next = if k + 1 < count then snd toks.(k + 1) else "" in
      if is_module w then (
        if dotted k then Hashtbl.replace r.qualified (w, next) ();
        let i = skip_blank (stop k) in
        if i + 1 < n && code.[i] = '.' && String.contains "([{" code.[i + 1] then
          Hashtbl.replace r.opened w ())
      else if (w = "open" || w = "include") && next <> "" && is_module next then
        Hashtbl.replace r.opened (path_end (k + 1)) ()
      else if w = "module" && next <> "" && is_module next && k + 2 < count then (
        let i = skip_blank (stop (k + 1)) in
        if i < n && code.[i] = '=' && is_module (snd toks.(k + 2)) then
          Hashtbl.replace r.aliases next (path_end (k + 2))))
    toks;
  r

(* [r] reads [x] of module [m]: as [m.x] or [a.x] for an alias [a] of
   [m], or as [x] where it opens either. *)
let reads r m x =
  let names_m =
    m :: Hashtbl.fold (fun a target acc -> if target = m then a :: acc else acc) r.aliases []
  in
  List.exists (fun q -> Hashtbl.mem r.qualified (q, x)) names_m
  || (Hashtbl.mem r.names x && List.exists (Hashtbl.mem r.opened) names_m)

(* [(line, name)] for each [val name] in an interface's text. *)
let vals text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, words line))
  |> List.filter_map (fun (ln, ws) ->
         match ws with "val" :: name :: _ -> Some (ln, name) | _ -> None)

let () =
  let all = List.concat_map files scanned in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") all in
  let reads_in = List.map (fun f -> (f, reads_of (code_only (read f)))) mls in
  let interfaces =
    List.filter
      (fun f ->
        Filename.check_suffix f ".mli"
        && List.length (String.split_on_char '/' f) = 3
        && String.starts_with ~prefix:"lib/" f)
      all
  in
  if interfaces = [] then (
    print_endline "check_exports: no lib/*/*.mli under the current directory";
    exit 1);
  let exports = ref 0 and unread = ref 0 and test_only = ref 0 in
  List.iter
    (fun mli ->
      let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      let modname = String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli")) in
      List.iter
        (fun (ln, name) ->
          incr exports;
          let readers =
            List.filter (fun (f, r) -> f <> own && reads r modname name) reads_in
          in
          if readers = [] then (
            incr unread;
            Printf.printf "%s:%d: %s.%s is exported but no other module reads it\n" mli ln
              modname name)
          else if List.for_all (fun (f, _) -> String.starts_with ~prefix:"test/" f) readers
          then incr test_only)
        (vals (code_only (read mli))))
    interfaces;
  if !unread > 0 then (
    Printf.printf "check_exports: %d of %d exports unread outside their module\n" !unread
      !exports;
    exit 1);
  Printf.printf
    "check_exports: %d exports, each read outside its module; %d of them only by test/\n"
    !exports !test_only
