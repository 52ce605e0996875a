(* Aggregates every suite; `dune runtest` runs this executable. *)

let () =
  Alcotest.run "grid_replication"
    (List.concat
       [
         Test_util.suite;
         Test_obs.suite;
         Test_watchdog.suite;
         Test_alloc.suite;
         Test_codec.suite;
         Test_wire.suite;
         Test_sim.suite;
         Test_paxos_unit.suite;
         Test_replica_unit.suite;
         Test_election_unit.suite;
         Test_recovery.suite;
         Test_semi_passive.suite;
         Test_services.suite;
         Test_lease.suite;
         Test_replication.suite;
         Test_faults.suite;
         Test_txn.suite;
         Test_check.suite;
      Test_stress.suite;
         Test_net.suite;
         Test_workload.suite;
         Test_scenario.suite;
         Test_shard.suite;
         Test_xshard.suite;
         Test_reshard.suite;
         Test_overload.suite;
       ])
