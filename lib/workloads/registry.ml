open Dapper_codegen

type spec = {
  sp_name : string;
  sp_modul : Dapper_ir.Ir.modul Lazy.t;
}

let mk name f = { sp_name = name; sp_modul = lazy (f ()) }

let npb_a () =
  [ mk "npb-ep.A" (fun () -> Npb.ep Npb.A);
    mk "npb-cg.A" (fun () -> Npb.cg Npb.A);
    mk "npb-mg.A" (fun () -> Npb.mg Npb.A);
    mk "npb-ft.A" (fun () -> Npb.ft Npb.A);
    mk "npb-is.A" (fun () -> Npb.is_ Npb.A) ]

let npb_b () =
  [ mk "npb-ep.B" (fun () -> Npb.ep Npb.B);
    mk "npb-cg.B" (fun () -> Npb.cg Npb.B);
    mk "npb-mg.B" (fun () -> Npb.mg Npb.B);
    mk "npb-ft.B" (fun () -> Npb.ft Npb.B) ]

let parsec () =
  [ mk "blackscholes" Parsec.blackscholes;
    mk "swaptions" Parsec.swaptions;
    mk "streamcluster" Parsec.streamcluster ]

let all () =
  npb_a ()
  @ [ mk "linpack" Hpc.linpack;
      mk "dhrystone" Hpc.dhrystone;
      mk "kmeans" Hpc.kmeans;
      mk "redis" (fun () -> Servers.redis ());
      mk "nginx" (fun () -> Servers.nginx ());
      mk "nbody" Source_apps.nbody ]
  @ parsec ()

let find name =
  match List.find_opt (fun sp -> sp.sp_name = name) (all () @ npb_b ()) with
  | Some sp -> sp
  | None -> invalid_arg (Printf.sprintf "Registry.find: unknown benchmark %S" name)

let compiled sp = Link.memoized ~app:sp.sp_name (fun () -> Lazy.force sp.sp_modul)
