let () = Runner.run "dapper-toolchain" Group_toolchain.suites
