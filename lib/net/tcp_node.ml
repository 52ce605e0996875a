open Grid_paxos.Types
module Span = Grid_obs.Span
module Metrics = Grid_obs.Metrics

let send_queue_bound = Transport.send_queue_bound
let now_ms = Transport.now_ms
let flight_recorder_events = 2048

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)
  module Client = Grid_paxos.Client

  type replica_handle = { node : Transport.t; replica : R.t; r_watchdog : Grid_obs.Watchdog.t }

  let start_replica ~cfg ~id ~port ~peers ?storage ?recovered ?obs
      ?max_wire_version () =
    let actor = "r" ^ string_of_int id in
    (* Flight recorder: unless the caller supplies a recorder, keep a
       bounded always-on one — the last [flight_recorder_events] events
       are a crash-scene record dumped by the admin endpoint, at
       ring-buffer cost. *)
    let obs =
      match obs with
      | Some o -> o
      | None ->
        Span.Recorder.create ~capacity:flight_recorder_events ~enabled:true ()
    in
    let node =
      Transport.create ~listen_port:port ~obs ?max_wire_version ~node_id:id ~actor
        ~addresses:peers ()
    in
    let registry = Transport.registry node in
    (* Online invariant checks: counted in this node's registry and noted
       into the flight recorder, so /metrics and /flightrec both carry the
       violation story. *)
    let watchdog =
      Grid_obs.Watchdog.create ~metrics:registry
        ~on_violation:(fun ~check ~detail ->
          Span.Recorder.note obs ~time:(now_ms ()) ~actor
            (Printf.sprintf "watchdog %s: %s" check detail))
        ()
    in
    let replica = R.create ~cfg ~id ~obs ~actor ~watchdog () in
    (* Every step runs on the loop thread: its records go to the store,
       one flushed frame each, before its actions return to the
       transport, so no send that depends on them is queued first. *)
    let run_step { persist; out } =
      Option.iter (fun store -> List.iter (Grid_paxos.Storage.apply store) persist) storage;
      out
    in
    (* Bootstrap (or reload the recovered image and restart, which
       applies the lease blackout) through an injected thunk. *)
    Transport.inject node (fun () ->
        run_step
          (match recovered with
          | None -> R.bootstrap replica
          | Some p ->
            R.load replica p;
            R.restart replica ~now:(now_ms ())));
    (* Resharding visibility (DESIGN.md §17): gauges of the replica's
       partition-map epoch and migration progress, set when /metrics is
       served, their only reader. *)
    let reshard_gauges =
      List.map
        (fun (name, help, read) -> (Metrics.gauge registry name ~help, read))
        [
          ( "grid_reshard_epoch",
            "Partition-map epoch this replica has committed",
            fun () -> Float.of_int (R.reshard_epoch replica) );
          ( "grid_reshard_migrating",
            "1 while a split/merge holds this replica frozen or installing",
            fun () -> if R.reshard_phase replica = "idle" then 0.0 else 1.0 );
          ( "grid_reshard_moved_ranges",
            "Key ranges handed to another group and not yet received back",
            fun () -> Float.of_int (R.moved_ranges replica) );
          ( "grid_reshard_imported_items",
            "Items adopted from shipped migration snapshots",
            fun () -> Float.of_int (R.imported_items replica) );
        ]
    in
    let health () =
      let peer_json =
        Transport.peer_versions node
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map (fun (p, v) -> Printf.sprintf {|"%d":%d|} p v)
        |> String.concat ","
      in
      let now = now_ms () in
      let b = R.ballot replica in
      let shed_reads, shed_writes = R.stats_shed replica in
      Printf.sprintf
        {|{"node":%d,"role":"%s","ballot":{"round":%d,"holder":%d},"commit_point":%d,"holds_lease":%b,"queue_depth":%d,"reads_inflight":%d,"shed_reads":%d,"shed_writes":%d,"watchdog_violations":%d,"reshard":{"epoch":%d,"phase":"%s","moved_ranges":%d,"imported_items":%d},"wire_version":%d,"peer_wire_versions":{%s}}|}
        id
        (R.role_name replica)
        b.Grid_paxos.Types.Ballot.round b.Grid_paxos.Types.Ballot.holder
        (R.commit_point replica)
        (R.holds_lease replica ~now)
        (R.queue_depth replica) (R.reads_inflight replica) shed_reads
        shed_writes
        (Grid_obs.Watchdog.violations watchdog)
        (R.reshard_epoch replica) (R.reshard_phase replica)
        (R.moved_ranges replica) (R.imported_items replica)
        (Transport.max_wire_version node) peer_json
    in
    (* Served on the loop thread: engine state is read in place. *)
    let routes = function
      | "/metrics" ->
        List.iter (fun (g, read) -> Metrics.set g (read ())) reshard_gauges;
        Some ("text/plain; version=0.0.4", Metrics.expose registry)
      | "/health" -> Some ("application/json", health () ^ "\n")
      | "/flightrec" ->
        Some ("application/jsonl", Span.dump_string (Span.Recorder.events obs))
      | _ -> None
    in
    Transport.start node ~routes (fun ~now input -> run_step (R.handle replica ~now input));
    { node; replica; r_watchdog = watchdog }

  (* Engine introspection from other threads runs on the loop thread. *)
  let on_loop h f = Transport.run_on_loop h.node f
  let replica_is_leader h = on_loop h (fun () -> R.is_leader h.replica)
  let replica_commit_point h = on_loop h (fun () -> R.commit_point h.replica)
  let replica_state h = on_loop h (fun () -> R.state h.replica)
  let replica_metrics h = Transport.registry h.node
  let replica_watchdog h = h.r_watchdog
  let replica_peer_versions h = on_loop h (fun () -> Transport.peer_versions h.node)
  let replica_transport h = h.node

  let stop_replica h = Transport.stop h.node

  type client_handle = {
    c_node : Transport.t;
    client : Client.t;
    c_mutex : Mutex.t;
    c_cond : Condition.t;
    c_reply : reply option ref;
    c_submitted : [ `Pending | `Busy | `Sent of Grid_util.Ids.Request_id.t ] ref;
  }

  let start_client ~id ~replicas ?(retry_ms = 200.0) ?obs ?max_wire_version () =
    let cid = Grid_util.Ids.Client_id.of_int id in
    let client =
      Client.create ~id:cid ~replicas:(List.map fst replicas) ~retry_ms ?obs ()
    in
    let node =
      Transport.create ?obs ?max_wire_version ~node_id:(client_node cid)
        ~actor:("c" ^ string_of_int id) ~addresses:replicas ()
    in
    let c_mutex = Mutex.create () in
    let c_cond = Condition.create () in
    let c_reply = ref None in
    let handle ~now input =
      let actions, reply = Client.handle client ~now input in
      (match reply with
      | Some r ->
        Mutex.lock c_mutex;
        c_reply := Some r;
        Condition.signal c_cond;
        Mutex.unlock c_mutex
      | None -> ());
      actions
    in
    Transport.start node handle;
    { c_node = node; client; c_mutex; c_cond; c_reply; c_submitted = ref `Pending }

  (* Internal: the raw rtype/payload request path. Exposed only through
     {!call_op}, which derives both from the service signature — callers
     never build wire payloads by hand. The submit runs on the loop
     thread, which reports its outcome through [c_submitted] while this
     thread polls. A stopped client refuses the submit: [None] at once. *)
  let call h rtype ~payload ~timeout_s =
    Mutex.lock h.c_mutex;
    h.c_reply := None;
    h.c_submitted := `Pending;
    Mutex.unlock h.c_mutex;
    match
      Transport.inject h.c_node (fun () ->
          let outcome, actions =
            match Client.submit h.client ~now:(now_ms ()) rtype ~payload with
            | `Sent actions ->
              (`Sent (Option.get (Client.outstanding h.client)).id, actions)
            | `Busy -> (`Busy, [])
          in
          Mutex.lock h.c_mutex;
          h.c_submitted := outcome;
          Mutex.unlock h.c_mutex;
          actions)
    with
    | exception Invalid_argument _ -> None
    | () ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      Mutex.lock h.c_mutex;
      let rec wait () =
        match (!(h.c_submitted), !(h.c_reply)) with
        | `Busy, _ ->
          (* An earlier call timed out and its request is still
             outstanding: the closed-loop client takes no other until that
             one completes. *)
          Mutex.unlock h.c_mutex;
          None
        (* Only the reply to this call's request: a late reply to an
           earlier, timed-out one may land in [c_reply] too. *)
        | `Sent id, Some r when Grid_util.Ids.Request_id.equal r.req id ->
          Mutex.unlock h.c_mutex;
          Some r
        | _ ->
          if Unix.gettimeofday () > deadline then begin
            Mutex.unlock h.c_mutex;
            None
          end
          else begin
            (* Condition has no timed wait in the stdlib: poll briefly. *)
            Mutex.unlock h.c_mutex;
            Thread.delay 0.002;
            Mutex.lock h.c_mutex;
            wait ()
          end
      in
      wait ()

  (* Typed entrypoint: classification and encoding stay inside the
     library. *)
  let call_op h ?(unreplicated = false) op ~timeout_s =
    let rtype : rtype =
      if unreplicated then Original
      else match S.classify op with `Read -> Read | `Write -> Write
    in
    call h rtype ~payload:(S.encode_op op) ~timeout_s

  let client_metrics h = Transport.registry h.c_node
  let client_transport h = h.c_node

  let client_peer_versions h =
    Transport.run_on_loop h.c_node (fun () -> Transport.peer_versions h.c_node)

  let stop_client h = Transport.stop h.c_node
end
