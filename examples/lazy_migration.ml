(* Post-copy (lazy) migration of a Redis-like server with a large
   in-memory database: only the task state and stacks move up front;
   data pages stream from the source's page server on first touch.

   Run with: dune exec examples/lazy_migration.exe *)

open Dapper_machine
open Dapper_net
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let () =
  let m = Servers.redis ~keys:16384 ~ops:8000 () in
  let c = Link.compile ~app:"redis-16k" m in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:6_000_000);
  Printf.printf "redis with 16k keys warm on x86-64; migrating lazily to aarch64...\n";
  List.iter
    (fun lazy_pages ->
      let q = Process.load c.Link.cp_x86 in
      ignore (Process.run q ~max_instrs:6_000_000);
      match
        Session.migrate ~lazy_pages ~bytes_scale:1500.0 ~src_node:Node.xeon
          ~dst_node:Node.rpi ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm q
      with
      | Error e -> failwith (Dapper_util.Dapper_error.to_string e)
      | Ok r ->
        (match Process.run_to_completion r.Session.r_process ~fuel:100_000_000 with
         | Process.Exited_run _ -> ()
         | _ -> failwith "migrated run failed");
        let t = r.Session.r_times in
        let mode = if lazy_pages then "lazy   " else "vanilla" in
        (match r.Session.r_page_server with
         | Some s ->
           Printf.printf
             "%s: stop-and-copy %.1f ms (image %d KiB); %d pages pulled on demand afterwards (%.1f ms hidden in execution)\n"
             mode (Session.total_ms t) (r.r_image_bytes / 1024) s.Transport.srv_pages
             (s.Transport.srv_ns /. 1e6)
         | None ->
           Printf.printf "%s: stop-and-copy %.1f ms (image %d KiB)\n" mode
             (Session.total_ms t) (r.r_image_bytes / 1024)))
    [ false; true ]
