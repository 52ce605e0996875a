(* sim_batch: the simulator under 64 closed-loop clients, the one
   workload where the leader's batches fill and T-Paxos conflicts and
   rebases run. No sockets, codecs or client polls take part, and the
   run is deterministic per seed, so its wall time resolves small
   changes in the protocol engine and the service. *)

module Kv = Timed.Kv
module RT = Grid_runtime.Runtime.Make (Kv)
module Rng = Grid_util.Rng
module Span = Grid_obs.Span
module Pct = Gridbench.Pct

let metric = Report.metric
let now = Probe.now
let clients = 64
let kv_clients = 48 (* the other 16 run transactions *)
let keys = 1024
let zipf_s = 0.99
let read_fraction = 0.2
let ops_per_txn = 3
let trace_capacity = 1 lsl 19

(* Transactions of three puts on Zipf keys, each closed by a commit:
   [items] requests in all, a whole number of transactions. *)
let txn_gen rng ~items =
  let emitted = ref 0 and tid = ref 0 in
  fun () ->
    if !emitted >= items then None
    else begin
      let step = !emitted mod (ops_per_txn + 1) in
      incr emitted;
      if step = 0 then incr tid;
      if step < ops_per_txn then
        let key = Printf.sprintf "key-%d" (Rng.zipf rng ~n:keys ~s:zipf_s) in
        Some
          (Grid_runtime.Runtime.In_txn
             (!tid, Grid_services.Kv_store.Put { key; value = Printf.sprintf "t%d" !emitted }))
      else Some (Grid_runtime.Runtime.Commit_txn { tid = !tid; ops = ops_per_txn })
    end

let gen ~seed ~items =
  let rng = Rng.of_int seed in
  fun ~client ->
    if client < kv_clients then
      Grid_runtime.Workload.kv_zipf ~rng ~read_fraction ~keys ~s:zipf_s ~count:items ~client
    else txn_gen (Rng.split rng) ~items

(* Set-up of one round: build the group, elect a leader, and run a
   short closed loop so the heap and the engine's tables are warm before
   the clock starts. *)
let warmup_items = 16

let setup ~seed ~obs =
  let t0 = now () in
  let t =
    RT.create ~seed ~cfg:(Grid_paxos.Config.default ~n:3) ~scenario:Grid_runtime.Scenario.sysnet
      ?obs ()
  in
  if RT.await_leader t = None then failwith "sim_batch: no leader elected";
  ignore
    (RT.run_closed_loop_ops t ~clients ~requests_per_client:warmup_items
       ~gen:(gen ~seed:(lnot seed) ~items:warmup_items));
  (t, now () -. t0)

let leader_commit_point t =
  match RT.leader t with Some l -> RT.R.commit_point (RT.replica t l) | None -> 0

let is_commit (r : RT.record) = match r.rec_rtype with Txn_commit _ -> true | _ -> false

type round = {
  r_setup : float;  (* s *)
  r_wall : float;  (* s *)
  r_cpu : float;  (* s *)
  r_ops : int;
  r_p50 : float;  (* virtual ms *)
  r_p90 : float;
  r_expected : int;
  r_failed : int;
  r_virt_rps : float;
  r_violations : string list;
  r_layers : Report.metric list;
}

(* One round: a fresh group, [items] requests from each client. *)
let round ~seed ~items ~obs =
  let t, setup_dt = setup ~seed ~obs in
  Option.iter Span.Recorder.clear obs;
  RT.reset_message_counts t;
  let fired0 = Grid_sim.Engine.fired (RT.engine t) in
  let cp0 = leader_commit_point t in
  let svc0 = Timed.read_all Timed.service_hooks in
  let cpu0 = Probe.cpu_s () and w0 = now () in
  let results, stalled =
    match RT.run_closed_loop_ops t ~clients ~requests_per_client:items ~gen:(gen ~seed ~items) with
    | r -> (Some r, [])
    | exception Failure msg -> (None, [ msg ])
  in
  let cpu1 = Probe.cpu_s () and w1 = now () in
  let svc = Timed.delta_all svc0 (Timed.read_all Timed.service_hooks) in
  let records = match results with Some r -> r.records | None -> [] in
  let total = List.length records in
  let expected = clients * items in
  let failed =
    List.length
      (List.filter
         (fun (r : RT.record) ->
           match r.rec_status with Ok | Txn_conflict | Txn_aborted -> false | _ -> true)
         records)
    + (expected - total)
  in
  let cp1 = leader_commit_point t and fired1 = Grid_sim.Engine.fired (RT.engine t) in
  let msgs = List.fold_left (fun acc (_, n) -> acc + n) 0 (RT.message_counts t) in
  (* Let the followers learn the last commits, then compare replicas. *)
  RT.run_until t (RT.now t +. 500.0);
  let replicas = List.init 3 (RT.replica t) in
  let states =
    List.sort_uniq compare (List.map (fun r -> Kv.encode_state (RT.R.state r)) replicas)
  in
  let watchdog = Grid_obs.Watchdog.violations (RT.watchdog t) in
  let violations =
    stalled
    @ (if total = expected then []
       else [ Printf.sprintf "%d of %d items completed" total expected ])
    @ (if watchdog = 0 then [] else [ Printf.sprintf "%d watchdog violations" watchdog ])
    @ if List.length states = 1 then [] else [ "replicas hold different states" ]
  in
  let lat = Pct.sorted (Array.of_list (List.map (fun (r : RT.record) -> r.rec_latency) records)) in
  let layers =
    match obs with
    | None -> []
    | Some rec_ ->
      let budget = Layers.budget (Span.Recorder.events rec_) in
      let writes =
        List.length
          (List.filter (fun (r : RT.record) -> r.rec_rtype = Write || is_commit r) records)
      in
      let commits = List.filter is_commit records in
      let aborted =
        List.filter
          (fun (r : RT.record) ->
            match r.rec_status with Txn_conflict | Txn_aborted -> true | _ -> false)
          commits
      in
      List.map (fun (n, v, _) -> metric ~clock:Virtual n "ms" v) budget.segments
      @ [ metric ~clock:Virtual "client.lat_p99_ms" "ms" (Pct.at lat 99.0);
          metric "client.lat_p99_n" "count" (Float.of_int total);
          metric "net.msgs_per_op" "count" (Probe.per msgs total);
          metric "replica.ops_per_instance" "count" (Probe.per writes (cp1 - cp0));
          metric "replica.watchdog_violations" "count" (Float.of_int watchdog);
          metric "replica.txn_abort_frac" "ratio"
            (Probe.per (List.length aborted) (List.length commits));
          metric "sim.events_per_op" "count" (Probe.per (fired1 - fired0) total);
          metric "sim.msgs_per_op" "count" (Probe.per msgs total);
          metric ~clock:Virtual "sim.virt_p50_ms" "ms" (Pct.at lat 50.0);
          metric "obs.events_per_op" "count" (Probe.per (Span.Recorder.length rec_) total);
          metric "obs.matched_share" "ratio" (Probe.per budget.matched budget.calls) ]
      @ Probe.service_metrics svc ~ops:total ~wall_s:(w1 -. w0)
  in
  {
    r_setup = setup_dt;
    r_wall = w1 -. w0;
    r_cpu = cpu1 -. cpu0;
    r_ops = total;
    r_p50 = Pct.at lat 50.0;
    r_p90 = Pct.at lat 90.0;
    r_expected = expected;
    r_failed = failed;
    r_virt_rps = (match results with Some r -> RT.throughput_rps r | None -> 0.0);
    r_violations = violations;
    r_layers = layers;
  }

(* The untraced run is [rounds] rounds, each with its own seed and
   timed set-up. It reports the median set-up and latency percentiles
   over them, and the interquartile mean ({!Pct.iq_mean}) of throughput
   and CPU per operation; the traced run is one round whose events all
   fit the recorder. *)
let rounds = 10

let run ~seed ~traced ~items =
  let items = (ops_per_txn + 1) * (((items / rounds) + ops_per_txn) / (ops_per_txn + 1)) in
  let obs =
    if traced then Some (Span.Recorder.create ~capacity:trace_capacity ~enabled:true ()) else None
  in
  let rs =
    List.init (if traced then 1 else rounds) (fun r ->
        let x = round ~seed:((seed * 100) + r) ~items ~obs in
        (* The next round's peak memory must not include this group. *)
        Gc.compact ();
        x)
  in
  let med f = Pct.median (Array.of_list (List.map f rs)) in
  let iqm f = Pct.iq_mean (Array.of_list (List.map f rs)) in
  let failed = List.fold_left (fun a r -> a + r.r_failed) 0 rs in
  let expected = List.fold_left (fun a r -> a + r.r_expected) 0 rs in
  let e2e =
    [ metric "setup_s" "s" (med (fun r -> r.r_setup));
      metric "tput_rps" "ops/s" (iqm (fun r -> Float.of_int r.r_ops /. r.r_wall));
      metric ~clock:Virtual "lat_p50_ms" "ms" (med (fun r -> r.r_p50));
      metric ~clock:Virtual "lat_p90_ms" "ms" (med (fun r -> r.r_p90));
      metric "cpu_ms_per_op" "ms"
        (iqm (fun r -> r.r_cpu *. 1000.0 /. Float.of_int (max 1 r.r_ops)));
      metric "fail_frac" "ratio" (Probe.per failed expected);
      metric ~clock:Virtual "sim_virt_rps" "ops/s" (med (fun r -> r.r_virt_rps)) ]
  in
  {
    Report.workload = "sim_batch";
    traced;
    attempted = expected;
    failed;
    violations = List.concat_map (fun r -> r.r_violations) rs;
    metrics = e2e @ List.concat_map (fun r -> r.r_layers) rs;
  }
