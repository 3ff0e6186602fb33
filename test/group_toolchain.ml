(* The toolchain under the migration machinery: utilities, ISAs, the
   compiler and its C-like front end, wire formats, binaries, the
   interpreter, and the untrusted-bytes decoders. *)
let suites =
  Test_util.suites
  @ Test_isa.suites
  @ Test_codegen.suites
  @ Test_clite.suites
  @ Test_proto.suites
  @ Test_machine.suites
  @ Test_parse.suites
  @ Test_fuzz.suites
  @ Test_stackmap_invariants.suites
  @ Test_indexes.suites
  @ Test_decoders.suites
