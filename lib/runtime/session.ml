(** Multiplexed client sessions: an O(1)-per-client pool over the
    runtime, built for open-loop experiments that need 10^5+ concurrent
    outstanding requests in one simulation.

    The protocol client allows one outstanding request, so an open-loop
    driver needs as many live clients as it has requests in flight. The
    naive approach (a fresh {!Runtime.Make.add_client} per arrival) costs
    per-replica link records and per-message CPU cost entries for every
    arrival and never reclaims them. A session pool instead registers
    {e light} clients — no link records (their messages ride the
    network's default latency, pointed at the scenario's client link) and
    zero modelled CPU cost — and recycles each one through a free list
    as soon as its request completes. Submitting on an idle pool is a
    stack pop; completing is a stack push. *)

module Network = Grid_sim.Network
module Metrics = Grid_obs.Metrics
open Grid_paxos.Types

module Make (S : Grid_paxos.Service_intf.S) = struct
  module RT = Runtime.Make (S)

  type slot = {
    client : Grid_paxos.Client.t;
    mutable sent_at : float;
    mutable cb : (reply -> latency_ms:float -> unit) option;
  }

  type t = {
    rt : RT.t;
    slots : (int, slot) Hashtbl.t;  (* session index -> slot *)
    free : int Stack.t;  (* indices with no request outstanding *)
    mutable registered : int;
    mutable inflight : int;
    mutable peak_inflight : int;
    mutable submitted : int;
    mutable completed : int;
    mutable rejected : int;
    g_sessions : Metrics.gauge;
    g_inflight : Metrics.gauge;
    c_submitted : Metrics.counter;
    c_rejected : Metrics.counter;
    g_queue_depth : Metrics.gauge;
    g_reads_inflight : Metrics.gauge;
    g_shed_reads : Metrics.gauge;
    g_shed_writes : Metrics.gauge;
  }

  (* Session client ids start here, clear of the closed-loop drivers'. *)
  let first_client_id = 100_000
  let pool_capacity = 200_000

  let create rt =
    (* Session nodes carry no per-pair link records: point the network's
       default latency at the scenario's client link so their messages
       see the same delay distribution a heavy client would. *)
    Network.set_default_latency (RT.network rt) ((RT.scenario rt).Scenario.client_link 0);
    let m = RT.metrics rt in
    {
      rt;
      slots = Hashtbl.create 4096;
      free = Stack.create ();
      registered = 0;
      inflight = 0;
      peak_inflight = 0;
      submitted = 0;
      completed = 0;
      rejected = 0;
      g_sessions =
        Metrics.gauge m "grid_sessions_open" ~help:"Client sessions registered in the pool";
      g_inflight =
        Metrics.gauge m "grid_sessions_inflight"
          ~help:"Sessions with a request outstanding";
      c_submitted =
        Metrics.counter m "grid_session_submitted_total"
          ~help:"Requests submitted through the session pool";
      c_rejected =
        Metrics.counter m "grid_session_rejected_total"
          ~help:"Arrivals dropped because every session was busy";
      g_queue_depth =
        Metrics.gauge m "grid_leader_queue_depth"
          ~help:"Leader admission queue depth at the last sample";
      g_reads_inflight =
        Metrics.gauge m "grid_leader_reads_inflight"
          ~help:"Leader read quorums in flight at the last sample";
      g_shed_reads =
        Metrics.gauge m "grid_shed_reads_total"
          ~help:"Reads the leader shed with Overloaded (cumulative)";
      g_shed_writes =
        Metrics.gauge m "grid_shed_writes_total"
          ~help:"Writes the leader shed with Overloaded (cumulative)";
    }

  let runtime t = t.rt
  let sessions t = t.registered
  let peak_in_flight t = t.peak_inflight
  let submitted t = t.submitted
  let completed t = t.completed
  let rejected t = t.rejected

  (* Free the slot before running the callback so a callback that
     resubmits can reuse the session it just released. *)
  let complete t idx (r : reply) =
    match Hashtbl.find_opt t.slots idx with
    | None -> ()
    | Some slot ->
      let cb = slot.cb in
      let latency_ms = RT.now t.rt -. slot.sent_at in
      slot.cb <- None;
      t.inflight <- t.inflight - 1;
      t.completed <- t.completed + 1;
      Metrics.set t.g_inflight (Float.of_int t.inflight);
      Stack.push idx t.free;
      (match cb with Some f -> f r ~latency_ms | None -> ())

  let acquire t =
    if not (Stack.is_empty t.free) then Some (Stack.pop t.free)
    else if t.registered >= pool_capacity then None
    else begin
      let idx = t.registered in
      t.registered <- t.registered + 1;
      let client =
        RT.add_client t.rt ~id:(first_client_id + idx) ~light:true
          ~on_reply:(fun r -> complete t idx r)
          ()
      in
      Hashtbl.replace t.slots idx { client; sent_at = 0.0; cb = None };
      Metrics.set t.g_sessions (Float.of_int t.registered);
      Some idx
    end

  let submit t item ~on_reply =
    match acquire t with
    | None ->
      t.rejected <- t.rejected + 1;
      Metrics.inc t.c_rejected;
      `No_session
    | Some idx -> (
      let slot = Hashtbl.find t.slots idx in
      slot.sent_at <- RT.now t.rt;
      slot.cb <- Some on_reply;
      match RT.submit_item t.rt slot.client item with
      | `Submitted ->
        t.submitted <- t.submitted + 1;
        t.inflight <- t.inflight + 1;
        if t.inflight > t.peak_inflight then t.peak_inflight <- t.inflight;
        Metrics.inc t.c_submitted;
        Metrics.set t.g_inflight (Float.of_int t.inflight);
        `Submitted
      | `Busy ->
        (* A free-listed session has no request outstanding, so this can
           only happen on pool misuse; surface it without losing the
           slot. *)
        slot.cb <- None;
        Stack.push idx t.free;
        `No_session)

  let sample_leader t =
    match RT.leader t.rt with
    | None -> ()
    | Some l ->
      let r = RT.replica t.rt l in
      let shed_reads, shed_writes = RT.R.stats_shed r in
      Metrics.set t.g_queue_depth (Float.of_int (RT.R.queue_depth r));
      Metrics.set t.g_reads_inflight (Float.of_int (RT.R.reads_inflight r));
      Metrics.set t.g_shed_reads (Float.of_int shed_reads);
      Metrics.set t.g_shed_writes (Float.of_int shed_writes)
end
