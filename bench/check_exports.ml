(* check_exports: lint gate over lib/'s interfaces. Fails (exit 1) when a
   [val] that a lib/*/*.mli exports is named by no .ml file in lib/, bin/,
   bench/, examples/, perfbench/ or test/ other than its own module's, so
   an export nothing reads cannot creep back in. The scan is a name
   search: a name that appears anywhere outside its module (code, comment
   or string) counts as read, so it never flags a live value. Run it from
   the root of the repository. *)

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

(* The identifier tokens of [s], in order. *)
let words s =
  let acc = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_ident c then (if !start < 0 then start := i)
      else if !start >= 0 then (
        acc := String.sub s !start (i - !start) :: !acc;
        start := -1))
    s;
  if !start >= 0 then acc := String.sub s !start (String.length s - !start) :: !acc;
  List.rev !acc

(* [(line, name)] for each [val name] in an interface's text. *)
let vals text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, words line))
  |> List.filter_map (fun (ln, ws) ->
         match ws with "val" :: name :: _ -> Some (ln, name) | _ -> None)

let () =
  let all = List.concat_map files scanned in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") all in
  let names_in =
    List.map
      (fun f ->
        let t = Hashtbl.create 256 in
        List.iter (fun w -> Hashtbl.replace t w ()) (words (read f));
        (f, t))
      mls
  in
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
  let exports = ref 0 and unread = ref 0 in
  List.iter
    (fun mli ->
      let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      let modname = String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli")) in
      List.iter
        (fun (ln, name) ->
          incr exports;
          let read_elsewhere = List.exists (fun (f, t) -> f <> own && Hashtbl.mem t name) names_in in
          if not read_elsewhere then (
            incr unread;
            Printf.printf "%s:%d: %s.%s is exported but no other module names it\n" mli ln
              modname name))
        (vals (read mli)))
    interfaces;
  if !unread > 0 then (
    Printf.printf "check_exports: %d of %d exports unread outside their module\n" !unread
      !exports;
    exit 1);
  Printf.printf "check_exports: %d exports, each named outside its module\n" !exports
