(* Test runner: every library contributes one suite. *)

let () =
  Alcotest.run "pgrid"
    [
      ("prng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("keyspace", Test_keyspace.suite);
      ("workload", Test_workload.suite);
      ("partition", Test_partition.suite);
      ("intset", Test_intset.suite);
      ("keytbl", Test_keytbl.suite);
      ("core", Test_core.suite);
      ("maintenance", Test_maintenance.suite);
      ("balance", Test_balance.suite);
      ("reconcile", Test_reconcile.suite);
      ("txn", Test_txn.suite);
      ("health", Test_health.suite);
      ("baseline", Test_baseline.suite);
      ("simnet", Test_simnet.suite);
      ("fault", Test_fault.suite);
      ("engine", Test_engine.suite);
      ("construction", Test_construction.suite);
      ("query", Test_query.suite);
      ("telemetry", Test_telemetry.suite);
      ("experiment", Test_experiment.suite);
    ]
