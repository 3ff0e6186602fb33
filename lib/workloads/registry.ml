open Dapper_codegen

type spec = {
  sp_name : string;
  sp_modul : Dapper_ir.Ir.modul Lazy.t;
  sp_threads : int;
  sp_kind : [ `Npb | `Parsec | `Server | `Hpc ];
}

let mk name kind ?(threads = 0) f =
  { sp_name = name; sp_modul = lazy (f ()); sp_threads = threads; sp_kind = kind }

let npb_a () =
  [ mk "npb-ep.A" `Npb (fun () -> Npb.ep Npb.A);
    mk "npb-cg.A" `Npb (fun () -> Npb.cg Npb.A);
    mk "npb-mg.A" `Npb (fun () -> Npb.mg Npb.A);
    mk "npb-ft.A" `Npb (fun () -> Npb.ft Npb.A);
    mk "npb-is.A" `Npb (fun () -> Npb.is_ Npb.A) ]

let npb_b () =
  [ mk "npb-ep.B" `Npb (fun () -> Npb.ep Npb.B);
    mk "npb-cg.B" `Npb (fun () -> Npb.cg Npb.B);
    mk "npb-mg.B" `Npb (fun () -> Npb.mg Npb.B);
    mk "npb-ft.B" `Npb (fun () -> Npb.ft Npb.B) ]

let parsec () =
  [ mk "blackscholes" `Parsec ~threads:4 (fun () -> Parsec.blackscholes ());
    mk "swaptions" `Parsec ~threads:4 (fun () -> Parsec.swaptions ());
    mk "streamcluster" `Parsec ~threads:4 (fun () -> Parsec.streamcluster ()) ]

let all () =
  npb_a ()
  @ [ mk "linpack" `Hpc (fun () -> Hpc.linpack ());
      mk "dhrystone" `Hpc (fun () -> Hpc.dhrystone ());
      mk "kmeans" `Hpc (fun () -> Hpc.kmeans ());
      mk "redis" `Server (fun () -> Servers.redis ());
      mk "nginx" `Server (fun () -> Servers.nginx ());
      mk "nbody" `Hpc (fun () -> Source_apps.nbody ()) ]
  @ parsec ()

let find name =
  match List.find_opt (fun sp -> sp.sp_name = name) (all () @ npb_b ()) with
  | Some sp -> sp
  | None -> invalid_arg (Printf.sprintf "Registry.find: unknown benchmark %S" name)

let compiled sp = Link.memoized ~app:sp.sp_name (fun () -> Lazy.force sp.sp_modul)
