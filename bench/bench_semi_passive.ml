(* Semi-passive replication vs the paper's protocol — the §5 comparison
   the paper leaves "uninvestigated".

   Both decide ⟨request, state⟩ tuples; they differ in how the executor
   is chosen: a stable elected leader (paper) vs a rotating ◇S
   coordinator (semi-passive). Failure-free write latency should tie
   (both pay one inter-replica round trip); fail-over differs — the
   rotating coordinator needs one round timeout, while the leader-based
   protocol pays suspicion + stability hold-down + prepare. *)

module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Scenario = Grid_runtime.Scenario
module Stats = Grid_util.Stats
module T = Grid_util.Text_table
module Noop = Grid_services.Noop
module Client = Grid_paxos.Client
module SP = Grid_paxos.Semi_passive.Make (Noop)
open Grid_paxos.Types
module RT = Experiment.RT

(* Minimal simulator driver for the semi-passive engine plus one client. *)
type sp_cluster = {
  eng : Engine.t;
  net : msg Network.t;
  replicas : SP.t array;
  down : bool array;
}

let sp_create ~seed ~(scenario : Scenario.t) ~cfg =
  let eng = Engine.create () in
  let rng = Grid_util.Rng.of_int seed in
  let net = Network.create eng rng in
  let replicas = Array.init cfg.Grid_paxos.Config.n (fun i -> SP.create ~cfg ~id:i ~seed:(seed + i) ()) in
  let t = { eng; net; replicas; down = Array.make cfg.n false } in
  let rec dispatch i actions =
    List.iter
      (function
        | Send { dst; msg } -> Network.send net ~src:i ~dst msg
        | After { delay; timer } ->
          ignore
            (Engine.schedule eng ~delay (fun () ->
                 if not t.down.(i) then
                   dispatch i (SP.handle replicas.(i) ~now:(Engine.now eng) (Timer timer))))
        | Note _ -> ())
      actions
  in
  for i = 0 to cfg.n - 1 do
    Network.add_node net ~id:i ~recv_cost:scenario.replica_recv_cost
      ~send_cost:scenario.replica_send_cost (fun ~src msg ->
        if not t.down.(i) then
          dispatch i (SP.handle replicas.(i) ~now:(Engine.now eng) (Receive { src; msg })))
  done;
  for i = 0 to cfg.n - 1 do
    for j = 0 to cfg.n - 1 do
      if i <> j then Network.set_link net ~src:i ~dst:j (scenario.replica_link i j)
    done
  done;
  Array.iteri (fun i r -> dispatch i (SP.bootstrap r)) replicas;
  t

(* One closed-loop client against the semi-passive cluster; returns
   per-request latencies (ms). *)
let sp_client_run t ~(scenario : Scenario.t) ~count ~on_progress =
  let cfg_n = Array.length t.replicas in
  let client =
    Client.create ~id:(Grid_util.Ids.Client_id.of_int 0)
      ~replicas:(List.init cfg_n Fun.id) ~retry_ms:200.0 ()
  in
  let node = Client.node client in
  let latencies = ref [] in
  let sent_at = ref 0.0 in
  let remaining = ref count in
  let rec dispatch actions reply =
    List.iter
      (function
        | Send { dst; msg } -> Network.send t.net ~src:node ~dst msg
        | After { delay; timer } ->
          ignore
            (Engine.schedule t.eng ~delay (fun () ->
                 let actions, reply = Client.handle client ~now:(Engine.now t.eng) (Timer timer) in
                 dispatch actions reply))
        | Note _ -> ())
      actions;
    match reply with
    | Some _ ->
      latencies := (Engine.now t.eng -. !sent_at) :: !latencies;
      on_progress (Engine.now t.eng);
      decr remaining;
      if !remaining > 0 then submit ()
    | None -> ()
  and submit () =
    sent_at := Engine.now t.eng;
    match Client.submit client Write ~payload:(Noop.encode_op Noop.Noop_write) with
    | `Sent actions -> dispatch actions None
    | `Busy -> ()
  in
  Network.add_node t.net ~id:node ~recv_cost:scenario.client_recv_cost
    ~send_cost:scenario.client_send_cost (fun ~src msg ->
      let actions, reply = Client.handle client ~now:(Engine.now t.eng) (Receive { src; msg }) in
      dispatch actions reply);
  for r = 0 to cfg_n - 1 do
    Network.set_link_sym t.net node r (scenario.client_link r)
  done;
  submit ();
  let deadline = Engine.now t.eng +. 120_000.0 in
  let rec drive () =
    if !remaining > 0 && Engine.now t.eng < deadline && Engine.step t.eng then drive ()
  in
  drive ();
  Array.of_list (List.rev !latencies)

let sp_cfg () = Grid_paxos.Config.make ~n:3 ~suspicion_ms:100.0 ()

(* Failure-free write RRT under semi-passive. *)
let sp_rrt ~seed =
  let scenario = Scenario.sysnet in
  let t = sp_create ~seed ~scenario ~cfg:(sp_cfg ()) in
  let lats = sp_client_run t ~scenario ~count:20 ~on_progress:(fun _ -> ()) in
  Array.fold_left ( +. ) 0.0 lats /. Float.of_int (Array.length lats)

(* Fail-over gap: crash the executor mid-run; the gap is the longest
   inter-reply interval. *)
let sp_failover_gap ~seed =
  let scenario = Scenario.sysnet in
  let t = sp_create ~seed ~scenario ~cfg:(sp_cfg ()) in
  let last = ref 0.0 and gap = ref 0.0 in
  ignore
    (Engine.schedule t.eng ~delay:10.0 (fun () ->
         t.down.(0) <- true;
         Network.crash t.net 0));
  let _ =
    sp_client_run t ~scenario ~count:40 ~on_progress:(fun now ->
        if now -. !last > !gap then gap := now -. !last;
        last := now)
  in
  !gap

(* The paper's protocol under an identical crash (same suspicion
   timeout), using the standard runtime. *)
let basic_failover_gap ~seed =
  let cfg = Grid_paxos.Config.make ~n:3 ~suspicion_ms:100.0 ~stability_ms:30.0 () in
  let t = RT.create ~cfg ~scenario:Scenario.sysnet ~seed () in
  ignore (RT.await_leader t);
  ignore
    (Engine.schedule (RT.engine t) ~delay:10.0 (fun () -> RT.crash_replica t 0));
  let results =
    RT.run_closed_loop_ops t ~clients:1 ~requests_per_client:40
      ~gen:(fun ~client:_ () -> Some (Grid_runtime.Runtime.Do Noop.Noop_write))
  in
  (* The request in flight during the switch absorbs the whole fail-over
     gap, so the maximum latency is the gap. *)
  List.fold_left (fun acc r -> Float.max acc r.RT.rec_latency) 0.0 results.records

let run ~quick ~only =
  if only = None || only = Some "semi-passive" then begin
    Experiment.section
      "semi-passive — rotating-coordinator baseline vs the paper's protocol (§5)";
    let trials = if quick then 5 else 15 in
    let mean f =
      let acc = Stats.create () in
      for seed = 1 to trials do
        Stats.add acc (f ~seed)
      done;
      acc
    in
    let sp = mean sp_rrt in
    let basic =
      mean (fun ~seed ->
          Experiment.rrt_trial ~scenario:Scenario.sysnet ~rtype:Write ~reqs:20 ~seed ())
    in
    let table =
      T.create
        ~columns:[ ("Metric", T.Left); ("Paper protocol", T.Right); ("Semi-passive", T.Right) ]
    in
    T.add_row table
      [ "write RRT, failure-free (ms)"; Experiment.pp_mean_ci basic; Experiment.pp_mean_ci sp ];
    let sp_gap = mean sp_failover_gap in
    let basic_gap = mean basic_failover_gap in
    T.add_row table
      [ "fail-over gap after executor crash (ms)"; Experiment.pp_mean_ci basic_gap;
        Experiment.pp_mean_ci sp_gap ];
    print_string (T.render table);
    print_endline
      "Both protocols decide <request, state> tuples, so failure-free write\n\
       latency ties (one inter-replica round trip). Fail-over differs: the\n\
       rotating coordinator resumes after one round timeout, while the\n\
       leader-based protocol pays suspicion + stability hold-down + prepare —\n\
       the price of the stable leader that makes X-Paxos and T-Paxos possible."
  end
