let () = Runner.run "dapper-fleet" Group_fleet.suites
