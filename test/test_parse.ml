open Dapper_isa
open Dapper_machine
open Dapper_clite
module Link = Dapper_codegen.Link

let check = Alcotest.check

let run_both ?(fuel = 50_000_000) name src ~code ~out =
  let m = Parse.compile ~name src in
  let compiled = Link.compile ~app:name m in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for compiled arch) in
      match Process.run_to_completion p ~fuel with
      | Process.Exited_run c ->
        check Alcotest.int (Printf.sprintf "%s exit on %s" name (Arch.name arch)) code
          (Int64.to_int c);
        check Alcotest.string (Printf.sprintf "%s out on %s" name (Arch.name arch)) out
          (Process.stdout_contents p)
      | Process.Crashed cr -> Alcotest.fail (name ^ " crashed: " ^ cr.cr_reason)
      | Process.Idle -> Alcotest.fail (name ^ ": deadlock")
      | Process.Progress -> Alcotest.fail (name ^ ": out of fuel"))
    Arch.all

let test_arith_and_control () =
  run_both "arith" {|
    fn collatz(n) {
      var steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
      }
      return steps;
    }
    fn main() {
      // collatz(27) = 111
      return collatz(27);
    }
  |} ~code:111 ~out:""

let test_floats_and_casts () =
  run_both "floats" {|
    fn hypot(f a, f b) : f {
      return sqrt(a * a + b * b);
    }
    fn main() {
      var f h = hypot(3.0, 4.0);
      print_flt(h);
      print_nl();
      return f2i(h * 10.0);
    }
  |} ~code:50 ~out:"5.000\n"

let test_arrays_pointers_strings () =
  run_both "arrays" {|
    global table[16];
    fn main() {
      arr local[4];
      var k = 0;
      for (k = 0; k < 16; k = k + 1) { table[k] = k * k; }
      local[0] = table[3] + table[4];   // 9 + 16
      var ptr p = &local;
      *p = *p + 1;                       // 26
      var fptr xs = sbrk(8 * 4);
      xs[0] = i2f(*p);
      print("sum=");
      print_int(f2i(xs[0]));
      print_nl();
      return f2i(xs[0]);
    }
  |} ~code:26 ~out:"sum=26\n"

let test_byte_ops () =
  run_both "bytes" {|
    fn main() {
      arr buf[2];
      var k = 0;
      for (k = 0; k < 5; k = k + 1) {
        buf.[k] = 65 + k;     // 'A'..'E'
      }
      print_str(&buf, 5);
      print_nl();
      return buf.[4];
    }
  |} ~code:69 ~out:"ABCDE\n"

let test_threads_and_tls () =
  run_both "threads" {|
    tls myacc;
    global total;
    global mtx;
    fn worker(seed) {
      myacc = 0;
      var k = 0;
      for (k = 0; k < 100; k = k + 1) { myacc = myacc + seed; }
      lock(&mtx);
      total = total + myacc;
      unlock(&mtx);
      return 0;
    }
    fn main() {
      var t1 = spawn(worker, 2);
      var t2 = spawn(worker, 3);
      join(t1);
      join(t2);
      return total;   // 200 + 300
    }
  |} ~code:500 ~out:""

let test_indirect_calls () =
  run_both "icalls" {|
    fn twice(x) { return x * 2; }
    fn thrice(x) { return x * 3; }
    fn main() {
      var ptr fp = twice;
      var a = icall(fp, 10);
      fp = thrice;
      return a + icall(fp, 10);   // 20 + 30
    }
  |} ~code:50 ~out:""

let test_logic_operators () =
  run_both "logic" {|
    fn main() {
      var a = 5;
      var b = 0;
      var r = 0;
      if (a && !b) { r = r + 1; }
      if (a || b) { r = r + 2; }
      if ((a > 3) && (a <= 5)) { r = r + 4; }
      if (a != 5 || b == 0) { r = r + 8; }
      return r + ((1 << 4) | (7 & 12)) + (9 ^ 1);
    }
  |} ~code:(15 + 20 + 8) ~out:""

let test_recursion_and_comments () =
  run_both "rec" {|
    /* multi-line
       comment */
    fn fib(n) {
      if (n <= 1) { return n; }    // base case
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { return fib(15); }
  |} ~code:610 ~out:""

let expect_parse_error src fragment =
  match Parse.compile ~name:"bad" src with
  | exception Parse.Parse_error msg ->
    check Alcotest.bool
      (Printf.sprintf "error %S mentions %S" msg fragment)
      true
      (let n = String.length fragment and h = String.length msg in
       let rec go k = k + n <= h && (String.sub msg k n = fragment || go (k + 1)) in
       go 0)
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error "fn main() { return undefined_var; }" "unknown identifier";
  expect_parse_error "fn main() { var f x = 1; return 0; }" "initialized with";
  expect_parse_error "fn main() { return 1.5 + 2; }" "not defined on";
  expect_parse_error "fn main() { return nosuchfn(1); }" "unknown function";
  expect_parse_error "fn main() { print_flt(3); return 0; }" "type mismatch";
  expect_parse_error "fn main() { return 1 }" "expected";
  expect_parse_error "fn main() { for (i = 0; j < 3; i = i + 1) {} return 0; }" "counter"

let test_parsed_program_migrates () =
  let src = {|
    global checksum;
    fn mix(x) {
      return ((x * 31) ^ (x >> 3)) % 65536;
    }
    fn main() {
      var acc = 0;
      var k = 0;
      for (k = 0; k < 30000; k = k + 1) {
        acc = (acc + mix(k)) % 1000003;
      }
      checksum = acc;
      print_int(acc);
      print_nl();
      return acc % 251;
    }
  |} in
  let m = Parse.compile ~name:"parsed-mig" src in
  let compiled = Link.compile ~app:"parsed-mig" m in
  let expected_code, expected_out =
    let p = Process.load compiled.Link.cp_arm in
    match Process.run_to_completion p ~fuel:100_000_000 with
    | Process.Exited_run v -> (v, Process.stdout_contents p)
    | _ -> Alcotest.fail "native run failed"
  in
  let p = Process.load compiled.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:500_000);
  (match Dapper.Monitor.request_pause p ~budget:30_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  let ok = Dapper_util.Dapper_error.ok_exn in
  let image = ok (Dapper_criu.Dump.dump p) in
  let image', _ =
    ok (Dapper.Rewrite.rewrite image ~src:compiled.Link.cp_x86 ~dst:compiled.Link.cp_arm)
  in
  let q = ok (Dapper_criu.Restore.restore image' compiled.Link.cp_arm) in
  match Process.run_to_completion q ~fuel:100_000_000 with
  | Process.Exited_run v ->
    check Alcotest.bool "exit equal" true (Int64.equal v expected_code);
    check Alcotest.string "out equal" expected_out
      (Process.stdout_contents p ^ Process.stdout_contents q)
  | _ -> Alcotest.fail "migrated parsed program failed"

let suites =
  [ ( "clite-parser",
      [ Alcotest.test_case "arithmetic + control flow" `Quick test_arith_and_control;
        Alcotest.test_case "floats + casts" `Quick test_floats_and_casts;
        Alcotest.test_case "arrays, pointers, strings" `Quick test_arrays_pointers_strings;
        Alcotest.test_case "byte operations" `Quick test_byte_ops;
        Alcotest.test_case "threads + tls" `Quick test_threads_and_tls;
        Alcotest.test_case "indirect calls" `Quick test_indirect_calls;
        Alcotest.test_case "logic operators" `Quick test_logic_operators;
        Alcotest.test_case "recursion + comments" `Quick test_recursion_and_comments;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "parsed program migrates" `Quick test_parsed_program_migrates ] ) ]
