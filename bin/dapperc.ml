(* dapperc: the Dapper "compiler driver" - compiles a registry benchmark
   for both ISAs and inspects the result (symbols, stack maps,
   disassembly), playing the role of the modified clang + readelf. *)

open Cmdliner
open Dapper_isa
open Dapper_binary
open Dapper_workloads
module Link = Dapper_codegen.Link

let arch_conv =
  Arg.conv
    ( (fun s ->
        match Arch.of_name s with
        | Some a -> Ok a
        | None -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))),
      fun ppf a -> Format.pp_print_string ppf (Arch.name a) )

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
         ~doc:"Registry benchmark name (e.g. npb-cg.A, redis, nginx).")

let arch_arg =
  Arg.(value & opt arch_conv Arch.X86_64 & info [ "a"; "arch" ] ~docv:"ARCH"
         ~doc:"Architecture to inspect (x86-64 or aarch64).")

let symbols_flag = Arg.(value & flag & info [ "symbols" ] ~doc:"Print the symbol table.")
let maps_flag = Arg.(value & flag & info [ "stackmaps" ] ~doc:"Print the stack-map section.")
let disasm_arg =
  Arg.(value & opt (some string) None & info [ "disasm" ] ~docv:"FUNC"
         ~doc:"Disassemble one function.")

let inspect sp arch symbols maps disasm =
  let c = Registry.compiled sp in
  let bin = Link.binary_for c arch in
  Printf.printf "%s for %s: %d bytes of text, %d symbols, %d functions with stack maps\n"
    bin.Binary.bin_app (Arch.name arch) (Binary.text_size bin)
    (List.length bin.bin_symbols) (List.length bin.bin_stackmaps);
  if symbols then begin
    print_endline "symbols:";
    List.iter
      (fun (s : Binary.symbol) ->
        Printf.printf "  0x%08Lx %6d %-8s %s\n" s.sym_addr s.sym_size
          (match s.sym_kind with
           | Binary.Sym_func -> "FUNC"
           | Binary.Sym_object -> "OBJECT"
           | Binary.Sym_tls -> "TLS")
          s.sym_name)
      bin.bin_symbols
  end;
  if maps then begin
    print_endline "stack maps:";
    List.iter
      (fun (fm : Stackmap.func_map) ->
        Printf.printf "  %s @ 0x%Lx frame=%d leaf=%b promoted=%d eqpoints=%d\n"
          fm.fm_name fm.fm_addr fm.fm_frame_size fm.fm_leaf
          (List.length fm.fm_promoted) (List.length fm.fm_eqpoints);
        List.iter
          (fun (ep : Stackmap.eqpoint) ->
            Printf.printf "    ep %d %-10s at 0x%Lx resume 0x%Lx, %d live values\n"
              ep.ep_id
              (match ep.ep_kind with
               | Stackmap.Entry -> "entry"
               | Stackmap.Call_site { cs_nargs } -> Printf.sprintf "call(%d)" cs_nargs
               | Stackmap.Backedge -> "backedge")
              ep.ep_addr ep.ep_resume (List.length ep.ep_live))
          fm.fm_eqpoints)
      bin.bin_stackmaps
  end;
  match disasm with
  | None -> 0
  | Some fn ->
    (match Stackmap.find_func bin.bin_stackmaps fn with
     | None ->
       Printf.eprintf "dapperc: no function %S in %s\n%!" fn bin.Binary.bin_app;
       1
     | Some fm ->
       Printf.printf "disassembly of %s:\n" fn;
       let code = Binary.code_bytes bin fm.fm_addr fm.fm_code_size in
       List.iter
         (fun (off, ins) ->
           Printf.printf "  0x%Lx: %s\n"
             (Int64.add fm.fm_addr (Int64.of_int off))
             (Minstr.to_string arch ins))
         (Encoding.decode_all arch code);
       0)

let run bench arch symbols maps disasm =
  match Registry.find bench with
  | exception Invalid_argument _ ->
    Printf.eprintf "dapperc: unknown benchmark %S\n%!" bench;
    1
  | sp -> inspect sp arch symbols maps disasm

let cmd =
  Cmd.v
    (Cmd.info "dapperc" ~doc:"Compile and inspect Dapper dual-ISA binaries")
    Term.(const run $ bench_arg $ arch_arg $ symbols_flag $ maps_flag $ disasm_arg)

let () = exit (Cmd.eval' cmd)
