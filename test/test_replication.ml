(* End-to-end replication tests on the simulator: agreement across
   replicas, read/write semantics, deduplication, state-shipping modes,
   nondeterministic services, and the divergence of the classic
   request-shipping baseline. *)

module Config = Grid_paxos.Config
module Scenario = Grid_runtime.Scenario
module Counter = Grid_services.Counter
module Broker = Grid_services.Resource_broker
module Sched = Grid_services.Grid_scheduler
module Noop = Grid_services.Noop
module Runtime = Grid_runtime.Runtime
open Grid_paxos.Types

module RT_counter = Grid_runtime.Runtime.Make (Counter)

(* Typed-submit shim: these scripts sequence requests manually, so a
   [`Busy] here is a test bug. *)
let submit_c t c rtype ~payload =
  match RT_counter.submit t c rtype ~payload with
  | `Submitted -> ()
  | `Busy -> Alcotest.fail "submit: client busy"

module RT_broker = Grid_runtime.Runtime.Make (Broker)
module RT_sched = Grid_runtime.Runtime.Make (Sched)
module RT_noop = Grid_runtime.Runtime.Make (Noop)

let base_cfg ?(history = true) () =
  Config.make ~n:3 ~record_history:history ()

let counter_gen ops ~client:_ =
  let remaining = ref ops in
  fun () ->
    match !remaining with
    | [] -> None
    | op :: rest ->
      remaining := rest;
      Some (Runtime.Do op)

(* ------------------------------------------------------------------ *)

let test_leader_election_is_r0 () =
  let t = RT_counter.create ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
  Alcotest.(check (option int)) "replica 0 leads initially" (Some 0)
    (RT_counter.await_leader t)

let test_counter_agreement () =
  let t = RT_counter.create ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
  let results =
    RT_counter.run_closed_loop_ops t ~clients:3 ~requests_per_client:20
      ~gen:(counter_gen (List.init 20 (fun i -> Counter.Add (i + 1))))
  in
  Alcotest.(check int) "all completed" 60 results.total_completed;
  RT_counter.run_until t (RT_counter.now t +. 500.0);
  let expected = 3 * (20 * 21 / 2) in
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d final state" i)
      expected
      (RT_counter.R.state (RT_counter.replica t i))
  done;
  let histories =
    Array.init 3 (fun i -> RT_counter.R.committed_updates (RT_counter.replica t i))
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Grid_check.Agreement.check histories))

let test_reads_reflect_writes () =
  let t = RT_counter.create ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
  let observed = ref [] in
  let results =
    RT_counter.run_closed_loop_ops t ~clients:1 ~requests_per_client:10
      ~gen:(fun ~client:_ ->
        let i = ref 0 in
        fun () ->
          incr i;
          if !i > 10 then None
          else if !i mod 2 = 1 then Some (Runtime.Do (Counter.Add 1))
          else Some (Runtime.Do Counter.Get))
  in
  ignore results;
  (* Re-run capturing read results: a read after k writes must return k. *)
  let t2 = RT_counter.create ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
  ignore (RT_counter.await_leader t2);
  let client = ref None in
  let step = ref 0 in
  let c =
    RT_counter.add_client t2 ~id:0
      ~on_reply:(fun reply ->
        if !step mod 2 = 0 then
          observed := Counter.decode_result reply.payload :: !observed;
        incr step;
        if !step < 10 then
          let cl = Option.get !client in
          if !step mod 2 = 0 then
            submit_c t2 cl Read ~payload:(Counter.encode_op Counter.Get)
          else submit_c t2 cl Write ~payload:(Counter.encode_op (Counter.Add 1)))
      ()
  in
  client := Some c;
  (* step 0: read (expect 0); step 1: write; step 2: read (expect 1)... *)
  submit_c t2 c Read ~payload:(Counter.encode_op Counter.Get);
  RT_counter.run_until t2 5_000.0;
  Alcotest.(check (list int)) "monotone read results" [ 0; 1; 2; 3; 4 ]
    (List.rev !observed)

let test_duplicate_suppression () =
  (* Lossy network: client retransmissions must not double-execute. *)
  let cfg =
    Config.make ~base:(base_cfg ()) ~client_retry_ms:50.0 ~accept_retry_ms:20.0 ()
  in
  let t = RT_counter.create ~cfg ~scenario:(Scenario.uniform ()) () in
  ignore (RT_counter.await_leader t);
  Grid_sim.Network.set_drop_rate (RT_counter.network t) 0.15;
  let results =
    RT_counter.run_closed_loop_ops t ~clients:2 ~requests_per_client:15
      ~gen:(counter_gen (List.init 15 (fun _ -> Counter.Add 1)))
  in
  Alcotest.(check int) "all eventually answered" 30 results.total_completed;
  Grid_sim.Network.set_drop_rate (RT_counter.network t) 0.0;
  RT_counter.run_until t (RT_counter.now t +. 2_000.0);
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d counted each write once" i)
      30
      (RT_counter.R.state (RT_counter.replica t i))
  done

let run_ship_mode ship =
  let cfg = Config.make ~base:(base_cfg ()) ~ship () in
  let t = RT_counter.create ~cfg ~scenario:(Scenario.uniform ()) () in
  let _ =
    RT_counter.run_closed_loop_ops t ~clients:2 ~requests_per_client:10
      ~gen:(counter_gen (List.init 10 (fun i -> Counter.Add i)))
  in
  RT_counter.run_until t (RT_counter.now t +. 500.0);
  Array.init 3 (fun i -> RT_counter.R.state (RT_counter.replica t i))

let test_ship_modes_agree () =
  let expected = [| 90; 90; 90 |] in
  Alcotest.(check (array int)) "full" expected (run_ship_mode `Full);
  Alcotest.(check (array int)) "delta" expected (run_ship_mode `Delta);
  Alcotest.(check (array int)) "witness" expected (run_ship_mode `Witness)

(* ------------------------------------------------------------------ *)
(* Nondeterministic services stay consistent under state shipping and
   diverge under classic request shipping. *)

let broker_ops =
  List.concat
    [
      List.init 6 (fun k -> Broker.Register { rid = k; site = 0; capacity = 100 });
      List.init 30 (fun _ -> Broker.Select { site = 0; units = 1; strategy = Broker.Uniform });
    ]

let broker_gen ~client:_ =
  let remaining = ref broker_ops in
  fun () ->
    match !remaining with
    | [] -> None
    | op :: rest ->
      remaining := rest;
      Some (Runtime.Do op)

let broker_states coordination =
  let cfg = Config.make ~base:(base_cfg ()) ~coordination () in
  let t = RT_broker.create ~cfg ~scenario:(Scenario.uniform ()) () in
  let _ =
    RT_broker.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length broker_ops)
      ~gen:broker_gen
  in
  RT_broker.run_until t (RT_broker.now t +. 500.0);
  Array.init 3 (fun i -> Broker.encode_state (RT_broker.R.state (RT_broker.replica t i)))

let test_broker_state_shipping_consistent () =
  let states = broker_states `State_shipping in
  Alcotest.(check string) "r1 = r0" states.(0) states.(1);
  Alcotest.(check string) "r2 = r0" states.(0) states.(2)

let test_broker_request_shipping_diverges () =
  (* The §3.3 motivation: classic Multi-Paxos re-executes the randomized
     selection at every replica with its own RNG, so replicas diverge. *)
  let states = broker_states `Request_shipping in
  Alcotest.(check bool) "replicas diverged" true
    (states.(0) <> states.(1) || states.(0) <> states.(2))

let test_scheduler_replicated_consistent () =
  let ops =
    List.concat
      [
        List.init 3 (fun m -> Sched.Add_machine m);
        List.concat
          (List.init 10 (fun j ->
               [ Sched.Submit { job = j; priority = j mod 3 }; Sched.Examine ]));
      ]
  in
  let gen ~client:_ =
    let remaining = ref ops in
    fun () ->
      match !remaining with
      | [] -> None
      | op :: rest ->
        remaining := rest;
        Some (Runtime.Do op)
  in
  let t = RT_sched.create ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
  let _ = RT_sched.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length ops) ~gen in
  RT_sched.run_until t (RT_sched.now t +. 500.0);
  let st i = RT_sched.R.state (RT_sched.replica t i) in
  let enc i = Sched.encode_state (st i) in
  Alcotest.(check string) "r1 = r0" (enc 0) (enc 1);
  Alcotest.(check string) "r2 = r0" (enc 0) (enc 2);
  (* Every submitted job got scheduled, and replicas agree on the
     assignment map — the property NILE needed. *)
  Alcotest.(check int) "all jobs assigned" 10 (List.length (Sched.assignments (st 0)));
  Alcotest.(check (list int)) "no pending jobs" [] (Sched.pending_jobs (st 0))

(* ------------------------------------------------------------------ *)
(* Latency ordering (the headline §4.1 relationship). *)

let noop_item = function
  | Original -> Runtime.Unreplicated Noop.Noop_write
  | Read -> Runtime.Do Noop.Noop_read
  | _ -> Runtime.Do Noop.Noop_write

let noop_rrt rtype =
  let t =
    RT_noop.create ~cfg:(Config.default ~n:3) ~scenario:Scenario.sysnet ~seed:7 ()
  in
  let results =
    RT_noop.run_closed_loop_ops t ~clients:1 ~requests_per_client:50
      ~gen:(fun ~client:_ () -> Some (noop_item rtype))
  in
  let lats = RT_noop.latencies results in
  Array.fold_left ( +. ) 0.0 lats /. Float.of_int (Array.length lats)

let test_latency_ordering () =
  let original = noop_rrt Original in
  let read = noop_rrt Read in
  let write = noop_rrt Write in
  Alcotest.(check bool)
    (Printf.sprintf "original (%.3f) < read (%.3f)" original read)
    true (original < read);
  Alcotest.(check bool)
    (Printf.sprintf "read (%.3f) < write (%.3f)" read write)
    true (read < write);
  (* X-Paxos saves roughly one replica round-trip: the paper reports a 22%
     reduction; accept anything in the 10–35% band. *)
  let reduction = (write -. read) /. write in
  Alcotest.(check bool)
    (Printf.sprintf "X-Paxos reduction %.1f%%" (reduction *. 100.0))
    true
    (reduction > 0.10 && reduction < 0.35)

let test_execution_cost_parallelism () =
  (* With E >> m, reads cost ~2M + E (execution hides the confirms) while
     writes cost ~2M + E + 2m: the max(E, m) term of §3.4. *)
  let run rtype =
    let sc = Scenario.uniform ~latency:(Grid_sim.Latency.Constant 1.0) () in
    let cfg = Config.make ~n:3 ~execution_cost_ms:5.0 () in
    let t = RT_noop.create ~cfg ~scenario:sc () in
    let results =
      RT_noop.run_closed_loop_ops t ~clients:1 ~requests_per_client:10
        ~gen:(fun ~client:_ () -> Some (noop_item rtype))
    in
    let lats = RT_noop.latencies results in
    Array.fold_left ( +. ) 0.0 lats /. Float.of_int (Array.length lats)
  in
  let read = run Read and write = run Write in
  Alcotest.(check (float 0.2)) "read = 2M + E" 7.0 read;
  Alcotest.(check (float 0.2)) "write = 2M + E + 2m" 9.0 write

let test_five_replicas () =
  let cfg = Config.make ~n:5 ~record_history:true () in
  let t = RT_counter.create ~cfg ~scenario:(Scenario.uniform ~n:5 ()) () in
  let results =
    RT_counter.run_closed_loop_ops t ~clients:2 ~requests_per_client:10
      ~gen:(counter_gen (List.init 10 (fun _ -> Counter.Add 1)))
  in
  Alcotest.(check int) "completed" 20 results.total_completed;
  RT_counter.run_until t (RT_counter.now t +. 500.0);
  for i = 0 to 4 do
    Alcotest.(check int) (Printf.sprintf "replica %d" i) 20
      (RT_counter.R.state (RT_counter.replica t i))
  done

let test_single_replica () =
  (* n=1: quorum of one; everything commits locally. *)
  let cfg = Config.default ~n:1 in
  let t = RT_counter.create ~cfg ~scenario:(Scenario.uniform ~n:1 ()) () in
  let results =
    RT_counter.run_closed_loop_ops t ~clients:1 ~requests_per_client:5
      ~gen:(counter_gen (List.init 5 (fun _ -> Counter.Add 2)))
  in
  Alcotest.(check int) "completed" 5 results.total_completed;
  Alcotest.(check int) "state" 10 (RT_counter.R.state (RT_counter.replica t 0))

(* ------------------------------------------------------------------ *)
(* Fallback accounting: when the service can produce neither a delta nor
   a witness, ship = `Delta and ship = `Witness proposals must carry a
   Full update — attributed (and sized) as the full state, never an
   empty under-counted Delta/Witness. The persisted log is the ground
   truth for what went on the wire. *)

module Diffless = struct
  include Noop

  let name = "noop-diffless"
  let diff ~old_state:_ _ = None

  let apply ~rng ~now state op =
    { (Noop.apply ~rng ~now state op) with witness = None }
end

module R_diffless = Grid_paxos.Replica.Make (Diffless)

let test_ship_fallback_accounted_as_full () =
  List.iter
    (fun ship ->
      let cfg = Config.make ~n:1 ~record_history:true ~ship () in
      let storage, persisted = Grid_paxos.Storage.memory () in
      let r = R_diffless.create ~cfg ~id:0 () in
      (* Minimal event loop for the solo replica: fire armed timers in
         virtual-time order until it elects itself. *)
      let now = ref 0.0 in
      let timers = ref [] in
      let absorb { persist; out } =
        List.iter (Grid_paxos.Storage.apply storage) persist;
        List.iter
          (function
            | After { timer; delay } -> timers := (!now +. delay, timer) :: !timers
            | Send _ | Note _ -> ())
          out
      in
      absorb (R_diffless.bootstrap r);
      let steps = ref 0 in
      while (not (R_diffless.is_leader r)) && !steps < 500 do
        incr steps;
        match List.sort compare !timers with
        | [] -> Alcotest.fail "solo replica ran out of timers"
        | (at, tm) :: rest ->
          timers := rest;
          now := Float.max !now at;
          absorb (R_diffless.handle r ~now:!now (Timer tm))
      done;
      Alcotest.(check bool) "solo replica leads" true (R_diffless.is_leader r);
      for seq = 1 to 3 do
        let req =
          {
            id =
              Grid_util.Ids.Request_id.make
                ~client:(Grid_util.Ids.Client_id.of_int 1) ~seq;
            rtype = Write;
            payload = Noop.encode_op Noop.Noop_write;
            trace = no_trace;
          }
        in
        absorb
          (R_diffless.handle r ~now:!now
             (Receive { src = client_node req.id.client; msg = Client_req req }))
      done;
      Alcotest.(check int) "three instances committed" 3
        (R_diffless.commit_point r);
      let entries = (persisted ()).entries in
      Alcotest.(check int) "three proposals persisted" 3 (List.length entries);
      List.iter
        (fun (e : recovery_entry) ->
          match e.proposal.update with
          | Full s ->
            Alcotest.(check bool) "full payload decodes to a real state" true
              ((Diffless.decode_state s).Noop.writes >= 1);
            Alcotest.(check int) "state_update_size counts the full bytes"
              (String.length s)
              (state_update_size e.proposal.update);
            Alcotest.(check bool) "proposal_size includes the full bytes" true
              (proposal_size e.proposal >= String.length s)
          | Delta _ | Witness _ ->
            Alcotest.fail "diffless service must fall back to Full shipping")
        entries)
    [ `Delta; `Witness ]

(* ------------------------------------------------------------------ *)
(* End-to-end property: for ANY random op sequence, the replicated KV
   equals a sequential reference execution, on every replica. *)

module RT_kv = Grid_runtime.Runtime.Make (Grid_services.Kv_store)
module Kv = Grid_services.Kv_store

let gen_kv_op =
  QCheck2.Gen.(
    let key = map (fun i -> "k" ^ string_of_int i) (int_range 0 4) in
    oneof
      [
        map2 (fun key value -> Kv.Put { key; value }) key (string_size (int_range 0 6));
        map (fun k -> Kv.Del k) key;
        map2 (fun key value -> Kv.Append { key; value }) key (string_size (int_range 0 3));
      ])

let prop_replicated_kv_equals_reference =
  QCheck2.Test.make ~name:"replicated KV = sequential reference (all replicas)" ~count:30
    QCheck2.Gen.(pair (int_range 1 1000) (list_size (int_range 1 25) gen_kv_op))
    (fun (seed, ops) ->
      let reference =
        List.fold_left
          (fun st op -> (Kv.apply ~rng:(Grid_util.Rng.of_int 0) ~now:0.0 st op).state)
          (Kv.initial ()) ops
      in
      let t = RT_kv.create ~seed ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
      let remaining = ref ops in
      let _ =
        RT_kv.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length ops)
          ~gen:(fun ~client:_ () ->
            match !remaining with
            | [] -> None
            | op :: rest ->
              remaining := rest;
              Some (Runtime.Do op))
      in
      RT_kv.run_until t (RT_kv.now t +. 500.0);
      List.for_all
        (fun i ->
          String.equal
            (Kv.encode_state (RT_kv.R.state (RT_kv.replica t i)))
            (Kv.encode_state reference))
        [ 0; 1; 2 ])

(* The paper's core claim as a property: a NONDETERMINISTIC service,
   replicated under state shipping, keeps all replicas byte-identical for
   any op sequence — even though re-executing the same sequence twice
   (different RNG draws, different clock readings) would diverge. *)

let gen_broker_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun rid site -> Broker.Register { rid; site; capacity = 3 })
          (int_range 0 8) (int_range 0 1);
        map2 (fun site units -> Broker.Select { site; units; strategy = Broker.Uniform })
          (int_range 0 1) (int_range 1 2);
        map2 (fun site units -> Broker.Select { site; units; strategy = Broker.Power_of_two })
          (int_range 0 1) (int_range 1 2);
        map2 (fun rid units -> Broker.Release { rid; units }) (int_range 0 8) (int_range 1 2);
      ])

let prop_replicated_broker_replicas_identical =
  QCheck2.Test.make ~name:"nondeterministic broker: replicas byte-identical" ~count:25
    QCheck2.Gen.(pair (int_range 1 1000) (list_size (int_range 1 20) gen_broker_op))
    (fun (seed, ops) ->
      let t = RT_broker.create ~seed ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
      let remaining = ref ops in
      let _ =
        RT_broker.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length ops)
          ~gen:(fun ~client:_ () ->
            match !remaining with
            | [] -> None
            | op :: rest ->
              remaining := rest;
              Some (Runtime.Do op))
      in
      RT_broker.run_until t (RT_broker.now t +. 500.0);
      let enc i = Broker.encode_state (RT_broker.R.state (RT_broker.replica t i)) in
      String.equal (enc 0) (enc 1) && String.equal (enc 0) (enc 2))

module RT_lease = Grid_runtime.Runtime.Make (Grid_services.Lease_manager)
module Lease = Grid_services.Lease_manager

let gen_lease_op =
  QCheck2.Gen.(
    let resource = map (fun i -> "r" ^ string_of_int i) (int_range 0 3) in
    oneof
      [
        map2 (fun resource holder ->
            Lease.Acquire { resource; holder; ttl_ms = 25.0 })
          resource (int_range 1 3);
        map2 (fun resource holder ->
            Lease.Renew { resource; holder; ttl_ms = 25.0 })
          resource (int_range 1 3);
        map2 (fun resource holder -> Lease.Release { resource; holder })
          resource (int_range 1 3);
      ])

let prop_replicated_leases_identical =
  (* Lease decisions depend on the leader's clock at examination time
     (short TTLs make expiry races frequent at ~4 ms per request);
     replicas must still agree exactly. *)
  QCheck2.Test.make ~name:"clock-dependent leases: replicas byte-identical" ~count:25
    QCheck2.Gen.(pair (int_range 1 1000) (list_size (int_range 1 20) gen_lease_op))
    (fun (seed, ops) ->
      let t = RT_lease.create ~seed ~cfg:(base_cfg ()) ~scenario:(Scenario.uniform ()) () in
      let remaining = ref ops in
      let _ =
        RT_lease.run_closed_loop_ops t ~clients:1 ~requests_per_client:(List.length ops)
          ~gen:(fun ~client:_ () ->
            match !remaining with
            | [] -> None
            | op :: rest ->
              remaining := rest;
              Some (Runtime.Do op))
      in
      RT_lease.run_until t (RT_lease.now t +. 500.0);
      let enc i = Lease.encode_state (RT_lease.R.state (RT_lease.replica t i)) in
      String.equal (enc 0) (enc 1) && String.equal (enc 0) (enc 2))

let test_log_bounded_by_snapshot_window () =
  (* Each snapshot truncates the committed log prefix, so no replica's
     in-memory log grows with run length: it holds at most one snapshot
     window plus the instances still in flight. *)
  let interval = 8 and clients = 2 in
  let cfg = Config.make ~base:(base_cfg ~history:false ()) ~snapshot_interval:interval () in
  let t = RT_counter.create ~cfg ~scenario:(Scenario.uniform ()) () in
  let per_client = 20 * interval in
  let results =
    RT_counter.run_closed_loop_ops t ~clients ~requests_per_client:per_client
      ~gen:(counter_gen (List.init per_client (fun _ -> Counter.Add 1)))
  in
  Alcotest.(check int) "all completed" (clients * per_client) results.total_completed;
  RT_counter.run_until t (RT_counter.now t +. 500.0);
  for i = 0 to 2 do
    let r = RT_counter.replica t i in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d ran >= 20 snapshot windows" i)
      true
      (RT_counter.R.commit_point r >= 20 * interval);
    Alcotest.(check bool)
      (Printf.sprintf "replica %d log within one window (%d entries)" i
         (RT_counter.R.log_entries r))
      true
      (RT_counter.R.log_entries r <= interval + clients)
  done

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "replication.properties",
      qcheck
        [
          prop_replicated_kv_equals_reference;
          prop_replicated_broker_replicas_identical;
          prop_replicated_leases_identical;
        ] );
    ( "replication.e2e",
      [
        Alcotest.test_case "initial leader is r0" `Quick test_leader_election_is_r0;
        Alcotest.test_case "counter agreement (3 clients)" `Quick test_counter_agreement;
        Alcotest.test_case "reads reflect writes" `Quick test_reads_reflect_writes;
        Alcotest.test_case "duplicate suppression under loss" `Quick
          test_duplicate_suppression;
        Alcotest.test_case "ship modes agree" `Quick test_ship_modes_agree;
        Alcotest.test_case "delta/witness fallback ships (and counts) Full" `Quick
          test_ship_fallback_accounted_as_full;
        Alcotest.test_case "five replicas" `Quick test_five_replicas;
        Alcotest.test_case "single replica" `Quick test_single_replica;
        Alcotest.test_case "log bounded by the snapshot window" `Quick
          test_log_bounded_by_snapshot_window;
      ] );
    ( "replication.nondeterminism",
      [
        Alcotest.test_case "broker consistent under state shipping" `Quick
          test_broker_state_shipping_consistent;
        Alcotest.test_case "broker diverges under request shipping" `Quick
          test_broker_request_shipping_diverges;
        Alcotest.test_case "scheduler replicated consistently" `Quick
          test_scheduler_replicated_consistent;
      ] );
    ( "replication.latency",
      [
        Alcotest.test_case "original < read < write (§4.1)" `Quick test_latency_ordering;
        Alcotest.test_case "X-Paxos hides execution cost (§3.4)" `Quick
          test_execution_cost_parallelism;
      ] );
  ]
