(* What the benchmark declares: its workloads, the end-to-end metrics
   with their regression bounds, and the per-layer metrics with the
   end-to-end metric each should move. BENCHMARK.json repeats the
   declared part and benchmark/test checks that the two agree. *)

(* Every workload, with the reason it exists. *)
let workloads =
  [ ("write_small", "64 keys, 2 sessions, puts only: each write's time goes to client wait, transport, accept round and storage; the service does almost nothing");
    ("write_large", "4096 keys, 2 sessions, puts only: the same layers with ~100x the state-shipping work per write");
    ("read_mostly", "64 keys, 90% gets: reads skip the accept round, diff and storage but add X-Paxos confirm traffic");
    ("failover", "open-loop puts while the leader is stopped: election timers, catch-up and client retransmission");
    ("sim_batch", "64 simulated clients with T-Paxos transactions: full batches and conflicts in the engine, no sockets, deterministic per seed") ]

(* The workloads BENCHMARK.json lists: those whose every listed metric
   repeats within a third of its bound on a shared host. Their latency
   is set by timers and the client's reply poll, not by CPU speed. The
   others run and report but are not listed:
   - write_large's writes take about as long as the 2 ms reply poll, so
     its latency jumps between poll multiples with the host's speed (p50
     spread 19-40% over ten seeds);
   - failover's tail and CPU follow the random election and
     retransmission timers (12-15%), and its own figure, unavail_ms, has
     no meaning elsewhere;
   - sim_batch is CPU-bound: when other tenants load the host its
     throughput and set-up time drop 30-60% for minutes at a time
     (throughput spread 31% in one set of ten). *)
let listed = [ "write_small"; "read_mostly" ]

type e2e = { name : string; unit : string; better : string; bound : float }

(* Each bound is at least three times the largest spread (interquartile
   range over median, ten seeds) measured on a listed workload; see
   benchmark/README.md. cpu_ms_per_op is reported but not listed: its
   spread reached 7-24% on the listed workloads. setup_s has the largest
   bound. *)
let end_to_end =
  [ { name = "setup_s"; unit = "s"; better = "lower"; bound = 0.25 };
    { name = "tput_rps"; unit = "ops/s"; better = "higher"; bound = 0.2 };
    { name = "lat_p50_ms"; unit = "ms"; better = "lower"; bound = 0.1 };
    { name = "lat_p90_ms"; unit = "ms"; better = "lower"; bound = 0.1 };
    { name = "peak_rss_mb"; unit = "MiB"; better = "lower"; bound = 0.2 } ]

(* Per-layer metrics measured on every listed workload and never the
   same on every run. [moves] names the end-to-end metrics and workloads
   each should move. *)
type layer = { name : string; unit : string; better : string; moves : string }

let layer name unit better moves = { name; unit; better; moves }
let both = "on write_small and read_mostly"
let writes = "lat_p50_ms and tput_rps on write_small, ~0 on read_mostly"

let per_layer =
  [ layer "client.submit_ms" "ms" "lower" ("lat_p50_ms " ^ both);
    layer "net.to_leader_ms" "ms" "lower" ("lat_p50_ms and tput_rps " ^ both);
    layer "replica.quorum_ms" "ms" "lower" writes;
    layer "net.to_client_ms" "ms" "lower" ("lat_p50_ms and tput_rps " ^ both);
    layer "client.poll_ms" "ms" "lower" ("lat_p50_ms and tput_rps " ^ both);
    layer "client.lat_p99_ms" "ms" "lower" ("lat_p90_ms " ^ both);
    layer "client.lat_p99_n" "count" "higher" "none: the sample count behind client.lat_p99_ms";
    layer "net.msgs_per_op" "count" "lower" ("cpu_ms_per_op and tput_rps " ^ both);
    layer "net.bytes_per_op" "B" "lower" ("cpu_ms_per_op " ^ both);
    layer "net.bytes_per_op.accept" "B" "lower" "cpu_ms_per_op on write_small and write_large";
    layer "replica.ops_per_instance" "count" "higher" "tput_rps on write_small and sim_batch";
    layer "service.apply_us" "us" "lower" "cpu_ms_per_op on sim_batch";
    layer "service.apply.n_per_op" "count" "lower" "cpu_ms_per_op on sim_batch";
    layer "service.diff_us" "us" "lower" "tput_rps and setup_s on write_large, none on the listed ones";
    layer "service.diff.n_per_op" "count" "lower" "cpu_ms_per_op on write_large";
    layer "service.diff_bytes" "B" "lower" "net.bytes_per_op.accept on write_large";
    layer "service.patch_us" "us" "lower" "cpu_ms_per_op on write_large";
    layer "service.patch.n_per_op" "count" "lower" "cpu_ms_per_op on write_large";
    layer "service.encode_state_us" "us" "lower" "lat_p90_ms and cpu_ms_per_op on write_large";
    layer "service.encode_state.n_per_op" "count" "lower" "cpu_ms_per_op on write_large";
    layer "service.encode_state_bytes" "B" "lower" "peak_rss_mb and cpu_ms_per_op on write_large";
    layer "service.busy_share" "ratio" "lower" "tput_rps on write_large and sim_batch, none on the listed ones";
    layer "storage.entry_us" "us" "lower" writes;
    layer "storage.commit_us" "us" "lower" writes;
    layer "storage.snapshot_us" "us" "lower" "lat_p90_ms on write_small and write_large";
    layer "storage.snapshot_bytes" "B" "lower" "cpu_ms_per_op on write_large";
    layer "storage.records_per_op" "count" "lower" writes;
    layer "storage.log_bytes_per_op" "B" "lower" writes;
    layer "obs.events_per_op" "count" "lower" "none: tracing cost, traced runs only";
    layer "obs.matched_share" "ratio" "higher" "none: share of calls whose spans were all found";
    layer "obs.trace_overhead_pct" "%" "lower" "none: traced against untraced CPU per operation" ]

(* Layers the benchmark also reports, with what they should move, but
   BENCHMARK.json does not list: a listed workload lacks the layer, or
   its value is the same on every run (spans stamped in one engine
   step, counters that must stay 0). *)
let other_layers =
  [ ("replica.queue_ms", "tput_rps on sim_batch; ~0 with one write in flight");
    ("replica.ship_ms", "tput_rps on sim_batch; 0 on TCP (same engine step as Apply)");
    ("replica.commit_ms", "none: recorded in the quorum's engine step");
    ("net.bytes_per_op.read_confirm", "cpu_ms_per_op on read_mostly");
    ("net.decode_errors", "none: must be 0");
    ("net.dials", "none: connection churn, nonzero only on failover");
    ("replica.watchdog_violations", "none: must be 0");
    ("replica.txn_abort_frac", "none: a guard that engine refactors keep T-Paxos outcomes on sim_batch");
    ("storage.promise_n", "none: counts elections, nonzero only on failover");
    ("service.decode_state_us", "setup_s after a restart (no workload decodes state)");
    ("service.decode_state.n_per_op", "setup_s after a restart");
    ("obs.closure_pct", "none: segments must sum to the traced mean latency within 10%");
    ("sim.events_per_op", "tput_rps and cpu_ms_per_op on sim_batch");
    ("sim.msgs_per_op", "tput_rps and cpu_ms_per_op on sim_batch");
    ("sim.virt_p50_ms", "lat_p50_ms on sim_batch");
    ("failover.detect_ms", "unavail_ms on failover");
    ("failover.resume_ms", "unavail_ms on failover");
    ("gen.late_ms", "none: how late the open-loop generator dispatched on failover") ]

let moves name =
  match List.find_opt (fun l -> l.name = name) per_layer with
  | Some l -> Some l.moves
  | None -> List.assoc_opt name other_layers
