(* Shard scaling (ours): aggregate closed-loop throughput of the sharded
   runtime at k ∈ {1, 2, 4, 8} groups on the Sysnet LAN, flagship
   service Kv_store on disjoint per-shard keyspaces.

   Each group keeps its own leader and its own depth-one write pipeline,
   and groups exchange no messages, so with a fixed client count per
   shard the aggregate should scale near-linearly — the Parallel-SMR
   argument for partitioned agreement. The simulation models no
   cross-group interference (each group's replicas are distinct nodes);
   a real deployment realizes that by placing groups on disjoint
   hosts. *)

module Config = Grid_paxos.Config
module Scenario = Grid_runtime.Scenario
module Runtime = Grid_runtime.Runtime
module Stats = Grid_util.Stats
module T = Grid_util.Text_table
module Kv = Grid_services.Kv_store
module Partition = Grid_shard.Partition
module M = Grid_shard.Multi.Make (Kv)

let clients_per_shard = 8
let keys_per_shard = 32

(* Per-shard keyspaces, rejection-sampled against the partition map so
   the router pins every client to its own group. *)
let keyset part shard =
  let keys = ref [] in
  let count = ref 0 in
  let i = ref 0 in
  while !count < keys_per_shard do
    let k = Printf.sprintf "s%d-key-%d" shard !i in
    incr i;
    if Partition.owner_of_key part ("kv/" ^ k) = shard then begin
      keys := k :: !keys;
      incr count
    end
  done;
  Array.of_list !keys

let shard_trial ~shards ~requests_per_client ~seed =
  let t =
    M.create ~seed ~cfg:(Config.default ~n:3) ~scenario:Scenario.sysnet
      ~route:Kv.route ~shards ()
  in
  let keysets = Array.init shards (keyset (M.partition t)) in
  let clients = shards * clients_per_shard in
  let results =
    M.run_closed_loop_ops t ~clients ~requests_per_client ~gen:(fun ~client ->
        let keys = keysets.(client mod shards) in
        let n = ref 0 in
        fun () ->
          incr n;
          Some (Runtime.Do (Kv.Put { key = keys.(!n mod Array.length keys); value = "v" })))
  in
  M.Group.throughput_rps results

let run ~quick ~only =
  if only = None || only = Some "shard" then begin
    Experiment.section
      "shard — aggregate closed-loop throughput vs shard count (ours)";
    let trials = if quick then 3 else 8 in
    let requests_per_client = if quick then 100 else 400 in
    let table =
      T.create
        ~columns:
          [ ("Shards", T.Right); ("Clients", T.Right);
            ("Aggregate (req/s)", T.Right); ("vs 1 shard", T.Right) ]
    in
    let base = ref 0.0 in
    List.iter
      (fun shards ->
        let acc = Stats.create () in
        for seed = 1 to trials do
          let v = shard_trial ~shards ~requests_per_client ~seed in
          Stats.add acc v;
          Report.sample ~experiment:"shard"
            ~config:(Printf.sprintf "%d-shards" shards)
            v
        done;
        let mean = Stats.mean acc in
        if shards = 1 then base := mean;
        T.add_row table
          [ string_of_int shards;
            string_of_int (shards * clients_per_shard);
            Experiment.pp_tput acc;
            Printf.sprintf "%.2fx" (mean /. !base) ])
      [ 1; 2; 4; 8 ];
    print_string (T.render table);
    print_endline
      "Expected shape: near-linear scaling — each group runs an independent\n\
       depth-one pipeline over its own keyspace; the router never lets a\n\
       request cross groups (cross-shard writes are rejected, DESIGN.md §11)."
  end
