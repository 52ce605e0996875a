(* The replica's shared state record and everything the roles of
   {!Replica} share: the per-step helpers (persist records, notes, spans,
   replies), leader leases, the one commit path and stepping down. The
   leader role ([Replica_leader]) and the election and follower path
   ([Replica]) both work over [Make (S)]. *)

open Types
module Rng = Grid_util.Rng
module Bitset = Grid_util.Bitset
module Ids = Grid_util.Ids
module Span = Grid_obs.Span
module Watchdog = Grid_obs.Watchdog
module Wire = Grid_codec.Wire

module Make (S : Service_intf.S) = struct
  type work =
    | W_write of request
    | W_txn_commit of request
        (* also carries the 2PC decision requests for a prepared
           cross-shard transaction: [Txn_commit] replays the prepared
           branch, [Txn_abort] discards it — both as consensus
           instances, so the decision is as durable as the vote *)
    | W_txn_prepare of request
    | W_reshard of request
        (* reshard control-plane markers (FREEZE / INSTALL / COMMIT /
           ABORT): each commits as a consensus instance so the migration
           state machine is exactly as durable as the log *)

  (* Work deferred behind the execution-cost timer (the paper's E). *)
  type exec_work =
    | Exec_batch of work list  (* writes and txn commits, one instance *)
    | Exec_read of request
    | Exec_original of request
    | Exec_txn_op of request

  type pending_read = {
    pr_request : request;
    pr_confirms : Bitset.t;
    mutable pr_exec_done : bool;
    mutable pr_result : string;
    mutable pr_leased : bool;
        (* dispatched on the lease fast path; reverts to the confirm
           path if the lease lapses before execution finishes *)
    pr_watermark : int;  (* commit point at admission *)
    mutable pr_exec_point : int;  (* commit point the read executed at *)
  }

  (* A leader-local transaction branch (T-Paxos). [tx_ops] and
     [tx_replies] are kept reversed. *)
  type txn = {
    mutable tx_state : S.state;
    tx_base : int;  (* commit point at branch time *)
    mutable tx_ops : (request * string option) list;  (* with witnesses *)
    mutable tx_replies : reply list;
    mutable tx_footprint : Footprint.t;
  }

  type inflight = {
    fl_instance : int;
    fl_proposal : proposal;
    fl_acks : Bitset.t;
    fl_post_state : S.state;
    fl_to_send : reply list;  (* replies released at commit time *)
  }

  type phase =
    | Ph_exec  (* waiting on an Exec_done for the current work item *)
    | Ph_prop of inflight

  type leadership = {
    l_ballot : Ballot.t;
    l_queue : work Queue.t;
    mutable l_phase : phase option;
    mutable l_repropose : (int * proposal) list;  (* ascending instances *)
    mutable l_recover_until : int;
        (* highest instance recovered at election: the old leader may
           have committed (and answered) any of them, so reads must not
           execute on our state until the commit point reaches it *)
    mutable l_deferred_reads : request list;
        (* reads received before recovery completed, newest first *)
    l_reads : (Ids.Request_id.t, pending_read) Hashtbl.t;
    l_txns : (int * int, txn) Hashtbl.t;  (* (client, txn id) *)
    mutable l_blocked : work list;
        (* writes held behind a prepared cross-shard lock (reversed);
           re-queued whenever a decision instance releases a lock *)
    l_queued_ids : (Ids.Request_id.t, unit) Hashtbl.t;
    l_grants : float array;
        (* per-follower lease-grant expiry, on the leader's own clock:
           the follower's echoed anchor + lease_ms - clock_skew_bound_ms.
           Own slot unused (the leader always counts itself). *)
  }

  type candidacy = {
    c_ballot : Ballot.t;
    c_acks : Bitset.t;
    c_merged : (int, Ballot.t * proposal) Hashtbl.t;
    mutable c_snapshot : Snapshot.t option;
  }

  type role = Follower | Candidate of candidacy | Leader of leadership

  type t = {
    cfg : Config.t;
    rid : int;
    mutable now : float;  (* driver time of the input being handled *)
    rng : Rng.t;
    mutable persisted : persist list;
        (* store writes of the step being handled, newest first; [handle]
           returns them, oldest first, as its step's [persist] *)
    log : Plog.t;
    mutable promised : Ballot.t;
    mutable role : role;
    mutable app_state : S.state;  (* latest committed service state *)
    (* election *)
    last_heard : float array;
    mutable round_seen : int;
    mutable candidate_since : float option;
    mutable hold_token : int;
        (* token of the latest stability hold-down armed (-1 = none yet):
           a [Stability_check] carrying any other token is stale *)
    (* X-Paxos confirms that arrived before the client request, tagged
       with the leadership ballot they confirmed (stale tags are
       discarded rather than counted toward a later leadership's reads) *)
    pre_confirms : (Ids.Request_id.t, Ballot.t * Bitset.t) Hashtbl.t;
    (* leader-lease grant held as a follower: while [now < lease_until]
       (own clock) this replica refuses to promise to any candidate
       other than [lease_holder]. [lease_anchor] is the [sent_at] of the
       leader heartbeat the grant is anchored to, echoed back so the
       leader can time grant expiry leader-clock against leader-clock. *)
    mutable lease_holder : int;  (* -1 = none (or post-crash blackout) *)
    mutable lease_until : float;
    mutable lease_anchor : float;  (* nan = no grant *)
    (* execution-cost deferral *)
    exec_table : (int, exec_work) Hashtbl.t;
    mutable exec_next : int;
    (* T-Paxos conflict window: footprints of the instances committed
       while this replica leads with a branch open *)
    recent_footprints : (int, Footprint.t) Hashtbl.t;
    mutable state_enc : Wire.Encoder.t;
        (* the periodic snapshot's state, encoded into this encoder kept
           across snapshots while it holds at most [kept_state_bytes] *)
    tables : Committed.t;
        (* dedup, 2PC and reshard participant tables, derived from
           committed instances only: exactly as durable as the log *)
    (* checker support *)
    mutable history : (int * request list * string) list;  (* reversed *)
    mutable commits_seen : int;
    (* admission control: requests shed with [Overloaded] while leading *)
    mutable shed_reads : int;
    mutable shed_writes : int;
    (* observability: lifecycle span recorder plus the precomputed actor
       label, so the disabled path costs one branch and no allocation *)
    obs : Span.Recorder.t;
    actor : string;
    sid_receive : string;
        (* precomputed [Leader_receive] span id: downstream spans of a
           traced request parent under this replica's receive span *)
    wd : Watchdog.monitor;  (* runtime invariant checks; one-branch when off *)
  }

  let create ~cfg ~id ?seed ?(obs = Span.Recorder.disabled)
      ?actor ?(watchdog = Watchdog.disabled) () =
    let seed = match seed with Some s -> s | None -> 0x5eed + id in
    let actor = match actor with Some a -> a | None -> "r" ^ string_of_int id in
    {
      cfg;
      rid = id;
      now = 0.0;
      rng = Rng.of_int seed;
      persisted = [];
      log = Plog.create ();
      promised = Ballot.zero;
      role = Follower;
      app_state = S.initial ();
      last_heard = Array.make cfg.n neg_infinity;
      round_seen = 0;
      candidate_since = None;
      hold_token = -1;
      pre_confirms = Hashtbl.create 16;
      lease_holder = -1;
      lease_until = neg_infinity;
      lease_anchor = Float.nan;
      exec_table = Hashtbl.create 16;
      exec_next = 0;
      recent_footprints = Hashtbl.create 64;
      state_enc = Wire.Encoder.create ();
      tables = Committed.create ();
      history = [];
      commits_seen = 0;
      shed_reads = 0;
      shed_writes = 0;
      obs;
      actor;
      sid_receive = Span.span_id ~actor Span.Leader_receive;
      wd = Watchdog.monitor watchdog ~actor;
    }

  (* An op's footprint; a payload that does not decode is taken to touch
     every key. *)
  let op_footprint (r : request) =
    match S.footprint (S.decode_op r.payload) with
    | keys -> Footprint.of_keys keys
    | exception _ -> Footprint.all

  (* Record one span for request [r] ([instance] -1: outside any
     instance). The labels are not optional, so a call passes no boxed
     option and the disabled path stays allocation-free. *)
  let span_request t ~instance ~detail phase (r : request) =
    Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
      ~actor:t.actor ~req:r.id ~instance ~detail phase

  (* Record one span for every request of a proposal (e.g. all members of
     a batched instance hit [Propose]/[Accept_quorum]/[Commit] together). *)
  let span_requests t phase ~instance (requests : request list) =
    if Span.Recorder.enabled t.obs then
      List.iter (span_request t ~instance ~detail:"" phase) requests

  let promised t = t.promised
  let commit_point t = Plog.commit_point t.log
  let log_entries t = Plog.entry_count t.log
  let footprint_window t = Hashtbl.length t.recent_footprints
  let state t = t.app_state
  let is_leader t = match t.role with Leader _ -> true | _ -> false

  let role_name t =
    match t.role with Leader _ -> "leader" | Candidate _ -> "candidate" | Follower -> "follower"

  let ballot t =
    match t.role with
    | Leader l -> l.l_ballot
    | Candidate c -> c.c_ballot
    | Follower -> t.promised

  let leader_view t =
    if Ballot.equal t.promised Ballot.zero then None else Some t.promised.holder

  let committed_updates t = List.rev t.history
  let stats_shed t = (t.shed_reads, t.shed_writes)

  let prepared_txns t =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) t.tables.prepared [] |> List.sort Int.compare

  let txn_outcome t tid = Hashtbl.find_opt t.tables.txn_outcomes tid
  let reshard_epoch t = t.tables.reshard_epoch
  let reshard_map t = t.tables.reshard_map

  let reshard_phase t =
    match (t.tables.frozen, t.tables.installed) with
    | Some _, _ -> "frozen"
    | None, Some _ -> "installing"
    | None, None -> "idle"

  let moved_ranges t = List.length t.tables.moved
  let imported_items t = t.tables.imported_items

  let queue_depth t =
    match t.role with Leader l -> Queue.length l.l_queue | _ -> 0

  let reads_inflight t =
    match t.role with Leader l -> Hashtbl.length l.l_reads | _ -> 0
  let others t = List.filter (fun r -> r <> t.rid) (Config.replica_ids t.cfg)
  let quorum t = Config.quorum t.cfg

  let note fmt = Format.kasprintf (fun s -> Note s) fmt
  let persist t p = t.persisted <- p :: t.persisted

  let observe_round t round = if round > t.round_seen then t.round_seen <- round
  let heard t ~from ~now = if from >= 0 && from < t.cfg.n then t.last_heard.(from) <- now

  (* ------------------------------------------------------------------ *)
  (* Leader leases                                                       *)

  (* The anchor to echo on outgoing heartbeats and read-confirms: the
     current grant, but only while it still names the replica we are
     promised to — after adopting a newer leadership the old anchor must
     not leak to the new leader as a grant. *)
  let lease_echo t =
    if
      t.cfg.lease_ms > 0.0 && t.lease_holder >= 0
      && t.lease_holder = t.promised.holder
      && t.now < t.lease_until
    then t.lease_anchor
    else Float.nan

  (* Leader side: a follower echoed [anchor]; its enforcement window ends
     no earlier than anchor + lease_ms on our clock (message delay only
     extends it), minus the assumed clock-skew bound. *)
  let record_grant t (l : leadership) ~src ~anchor =
    if
      t.cfg.lease_ms > 0.0
      && (not (Float.is_nan anchor))
      && src >= 0 && src < t.cfg.n && src <> t.rid
    then
      l.l_grants.(src) <-
        Float.max l.l_grants.(src)
          (anchor +. t.cfg.lease_ms -. t.cfg.clock_skew_bound_ms)

  let holds_lease t ~now =
    match t.role with
    | Leader l when t.cfg.lease_ms > 0.0 ->
      let live = ref 0 in
      Array.iteri (fun i e -> if i = t.rid || e > now then incr live) l.l_grants;
      !live >= Config.quorum t.cfg
    | _ -> false

  let lease_granted_to t ~now =
    if t.cfg.lease_ms > 0.0 && now < t.lease_until then Some t.lease_holder else None

  (* How long the current grant quorum lasts with no further renewals:
     the quorum-th largest grant expiry, counting the leader itself as
     unexpiring. This is the window the lease mutual-exclusion watchdog
     treats as "claimed" when a lease-local read is served. *)
  let lease_horizon t (l : leadership) =
    let es =
      Array.to_list
        (Array.mapi (fun i e -> if i = t.rid then infinity else e) l.l_grants)
    in
    match List.sort (fun a b -> Float.compare b a) es with
    | sorted -> ( try List.nth sorted (quorum t - 1) with _ -> neg_infinity)

  (* ------------------------------------------------------------------ *)
  (* Snapshots, dedup, commit bookkeeping                                *)

  let current_snapshot t =
    Committed.snapshot t.tables ~commit_point:(Plog.commit_point t.log)
      ~state:(S.encode_state t.app_state)

  let dedup_lookup t (req : request) =
    if t.cfg.disable_dedup then `Fresh else Committed.dedup_lookup t.tables.dedup req

  type commit_mode = Live | Replay

  (* The largest snapshot state whose encoder is kept for the next
     snapshot. Reuse saves copying a small state out of a growing buffer
     into blocks that stay in the allocator's arenas; a larger buffer
     comes from mmap and goes back to the system when freed, so keeping
     it would only hold resident memory. *)
  let kept_state_bytes = 65536

  (* The one commit path: everything a replica derives from committed
     [instance], whose update [t.app_state] already reflects, whether the
     leader commits it, a follower learns it or [load] replays it. Only
     the watchdog call, the commit count and the periodic snapshot depend
     on [mode]: a replayed commit was checked by the incarnation that
     made it, and a snapshot taken during [load] would write into the
     store being recovered. *)
  let on_committed t ~mode ~instance (p : proposal) =
    Committed.track t.tables p;
    (* Dup-commit watchdog: a (client, seq) must never commit at two
       different instances — that is exactly the bug the dedup table
       prevents and [disable_dedup] plants. Replay seeds the table, so
       that a later re-delivery of the same instance passes. *)
    let watch = if mode = Live then Watchdog.record_commit else Watchdog.seed_commit in
    List.iter
      (fun (r : request) ->
        watch t.wd ~client:(Ids.Client_id.to_int r.id.client) ~seq:r.id.seq ~instance)
      p.requests;
    (* The T-Paxos conflict window. Only a leader's open branches scan
       it, each over the instances committed since it opened, and every
       one of those commits while the branch is in [l_txns] (a parked
       branch goes back within the same step; [step_down] empties the
       table). So it is kept only while this replica leads with a branch
       open, and is otherwise empty. *)
    (match t.role with
    | Leader l when Hashtbl.length l.l_txns > 0 ->
      let footprint =
        List.fold_left
          (fun fp (r : request) ->
            match r.rtype with
            | Read | Txn_commit _ | Txn_abort _ | Txn_prepare _
            | Reshard_freeze _ | Reshard_install _ | Reshard_commit _
            | Reshard_abort _ ->
              fp
            | Write | Original | Txn_op _ -> Footprint.union fp (op_footprint r))
          Footprint.empty p.requests
      in
      Hashtbl.replace t.recent_footprints instance footprint;
      (* Bound the window. *)
      if Hashtbl.length t.recent_footprints > 2048 then begin
        let cp = Plog.commit_point t.log in
        Hashtbl.filter_map_inplace
          (fun i v -> if i < cp - 1024 then None else Some v)
          t.recent_footprints
      end
    | _ -> if Hashtbl.length t.recent_footprints > 0 then Hashtbl.reset t.recent_footprints);
    if t.cfg.record_history then
      t.history <- (instance, p.requests, S.encode_state t.app_state) :: t.history;
    match mode with
    | Replay -> ()
    | Live ->
      t.commits_seen <- t.commits_seen + 1;
      (* The state covers [instance], not the log's commit point:
         [handle_commit] may already have committed later instances that
         it has yet to apply, and those must stay in the log until it
         does. *)
      if t.commits_seen mod t.cfg.snapshot_interval = 0 then begin
        Wire.Encoder.clear t.state_enc;
        S.encode_state_into t.state_enc t.app_state;
        persist t
          (Snapshot
             (Snapshot.encode_with ~state:t.state_enc
                (Committed.snapshot t.tables ~commit_point:instance ~state:"")));
        if Wire.Encoder.length t.state_enc > kept_state_bytes then
          t.state_enc <- Wire.Encoder.create ();
        Plog.prune_below t.log instance
      end

  let install_snapshot t (snap : Snapshot.t) =
    if snap.commit_point > Plog.commit_point t.log then begin
      t.app_state <- S.decode_state snap.state;
      Committed.restore t.tables snap;
      Plog.install_commit_point t.log snap.commit_point;
      persist t (Commit_point snap.commit_point);
      persist t (Snapshot (Snapshot.encode snap))
    end

  (* ------------------------------------------------------------------ *)
  (* State-update construction and application                           *)

  let make_update t ~old_state ~new_state ~witness =
    let full () = Full (S.encode_state new_state) in
    let delta () =
      match S.diff ~old_state new_state with Some d -> Delta d | None -> full ()
    in
    match t.cfg.coordination with
    | `Request_shipping ->
      (* Classic Multi-Paxos ships no state; followers re-execute. *)
      Delta ""
    | `State_shipping -> (
      match t.cfg.ship with
      | `Full -> full ()
      | `Delta -> delta ()
      | `Witness -> ( match witness with Some w -> Witness w | None -> delta ()))

  let adopt = Committed.adopt (module S : Service_intf.S with type state = S.state)

  (* Execute [r]'s op on [st] with the replica's RNG and the clock of the
     input being handled. *)
  let apply_op t st (r : request) = S.apply ~rng:t.rng ~now:t.now st (S.decode_op r.payload)

  (* Apply a committed entry's update to the follower's state. *)
  let apply_update t (p : proposal) =
    match t.cfg.coordination with
    | `Request_shipping ->
      (* Replicated state machine: re-execute with the local RNG and
         clock. Deterministic services stay consistent; nondeterministic
         ones diverge — which is the point of the baseline. *)
      List.iter
        (fun (r : request) ->
          match r.rtype with
          | Read | Txn_commit _ | Txn_abort _ | Txn_prepare _
          | Reshard_freeze _ | Reshard_commit _ | Reshard_abort _ ->
            (* Protocol markers: their payloads are not service ops (the
               2PC markers carry op counts and prepared-branch blobs,
               the reshard markers carry envelopes and maps). The ops of
               a committed cross-shard branch appear in the decision
               instance as ordinary [Txn_op] requests and re-execute
               below. *)
            ()
          | Reshard_install _ -> (
            (* Snapshot handoff under request shipping: there is no
               shipped state to adopt, so the imported slice re-applies
               from the committed envelope ([import_range] is
               idempotent, so replay paths are harmless). *)
            match Reshard_wire.decode_install r.payload with
            | env -> t.app_state <- S.import_range t.app_state env.i_blob
            | exception _ -> ())
          | Write | Original | Txn_op _ -> t.app_state <- (apply_op t t.app_state r).state)
        p.requests
    | `State_shipping -> t.app_state <- adopt t.app_state p

  (* Adopt the committed instances from [from] up to the commit point,
     in order. A replayed instance was shipped to an earlier incarnation:
     its span is not recorded again. *)
  let apply_committed t ~mode ~from =
    let cp = Plog.commit_point t.log in
    let rec go i =
      if i <= cp then
        match Plog.get t.log i with
        | Some entry ->
          apply_update t entry.proposal;
          if mode = Live then
            span_requests t Span.State_ship ~instance:i entry.proposal.requests;
          on_committed t ~mode ~instance:i entry.proposal;
          go (i + 1)
        | None -> ()
    in
    go from

  (* ------------------------------------------------------------------ *)
  (* Sending                                                             *)

  let broadcast t msg = List.map (fun dst -> send ~dst msg) (others t)

  let reply_actions replies =
    List.map (fun (r : reply) -> send ~dst:(client_node r.req.client) (Reply_msg r)) replies

  let reply_to ?(payload = "") (r : request) status =
    reply_actions [ { req = r.id; status; payload } ]

  let wrong_epoch t =
    Wrong_epoch { epoch = t.tables.reshard_epoch; map = t.tables.reshard_map }

  (* ------------------------------------------------------------------ *)
  (* Stepping down                                                       *)

  (* Returns the actions of the demotion: a typed [Retry] reply for every
     pending read, so clients fail over to the new leader immediately
     instead of waiting out their retransmission timers. (Transactions
     are lost, so their commits will abort, §3.6.) Stale pre-confirms
     must not survive into a later leadership of this replica, nor may
     deferred executions: with [exec_table] reset, and tokens that only
     increase, an [Exec_done] armed before the demotion matches nothing
     afterwards. *)
  let step_down t =
    let acts =
      match t.role with
      | Leader l ->
        let dropped =
          (* deferred reads oldest first, then the read window *)
          List.rev_append l.l_deferred_reads
            (Hashtbl.fold (fun _ pr acc -> pr.pr_request :: acc) l.l_reads [])
        in
        Hashtbl.reset l.l_reads;
        l.l_deferred_reads <- [];
        Hashtbl.reset l.l_txns;
        Queue.clear l.l_queue;
        Hashtbl.reset l.l_queued_ids;
        l.l_phase <- None;
        t.role <- Follower;
        List.concat_map (fun r -> reply_to r Retry) dropped
      | Candidate _ ->
        t.role <- Follower;
        []
      | Follower -> []
    in
    t.candidate_since <- None;
    Hashtbl.reset t.pre_confirms;
    Hashtbl.reset t.exec_table;
    acts

  (* Adopt [ballot] if it is above our promise: step down from any
     leadership or candidacy, then persist the promise. Returns the
     demotion's actions (none when the promise already covers [ballot]).
     A leadership's or candidacy's ballot always equals the promise
     (both are set together, and every raise of the promise goes through
     here), so "above the promise" is "above our own ballot". *)
  let adopt_promise t ballot =
    if Ballot.compare ballot t.promised <= 0 then []
    else begin
      let demoted =
        match t.role with Leader _ | Candidate _ -> step_down t | Follower -> []
      in
      t.promised <- ballot;
      persist t (Promise ballot);
      demoted
    end
end
