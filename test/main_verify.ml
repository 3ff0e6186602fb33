let () = Runner.run "dapper-verify" Group_verify.suites
