open Types
module Rng = Grid_util.Rng
module Bitset = Grid_util.Bitset
module Ids = Grid_util.Ids
module Span = Grid_obs.Span
module Watchdog = Grid_obs.Watchdog

(* Constant labels attached to [Leader_receive] spans; returning string
   literals keeps the instrumented path allocation-free. *)
let rtype_label = function
  | Read -> "read"
  | Write -> "write"
  | Original -> "original"
  | Txn_op _ -> "txn_op"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Txn_prepare _ -> "txn_prepare"
  | Reshard_freeze _ -> "reshard_freeze"
  | Reshard_install _ -> "reshard_install"
  | Reshard_commit _ -> "reshard_commit"
  | Reshard_abort _ -> "reshard_abort"

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
           returns them ahead of the step's other actions *)
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
    (* T-Paxos conflict window: footprints of recently committed instances *)
    recent_footprints : (int, Footprint.t) Hashtbl.t;
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

  (* Record one span for every request of a proposal (e.g. all members of
     a batched instance hit [Propose]/[Accept_quorum]/[Commit] together). *)
  let span_requests t phase ~instance (requests : request list) =
    if Span.Recorder.enabled t.obs then
      List.iter
        (fun (r : request) ->
          Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
            ~actor:t.actor ~req:r.id ~instance ~detail:"" phase)
        requests

  let id t = t.rid
  let promised t = t.promised
  let commit_point t = Plog.commit_point t.log
  let log_entries t = Plog.entry_count t.log
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
    (* Footprints for T-Paxos conflict detection: derived from the ops. *)
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
    end;
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
        persist t
          (Snapshot (Snapshot.encode { (current_snapshot t) with commit_point = instance }));
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
          | Write | Original | Txn_op _ ->
            let op = S.decode_op r.payload in
            t.app_state <- (S.apply ~rng:t.rng ~now:t.now t.app_state op).state)
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
  (* Leader: proposing                                                   *)

  let broadcast t msg = List.map (fun dst -> send ~dst msg) (others t)

  let reply_actions replies =
    List.map (fun (r : reply) -> send ~dst:(client_node r.req.client) (Reply_msg r)) replies

  let wrong_epoch t =
    Wrong_epoch { epoch = t.tables.reshard_epoch; map = t.tables.reshard_map }

  (* ------------------------------------------------------------------ *)
  (* Leader: executing a batch                                           *)

  (* A batch under execution, in arrival order on the committed state;
     the instance decides the whole batch plus the final state. Lists
     are reversed. *)
  type batch = {
    mutable b_state : S.state;
    mutable b_witness : string option;  (* of the last executed write *)
    mutable b_written : Footprint.t;  (* keys written so far *)
    mutable b_prepared : Footprint.t;  (* keys locked by YES votes so far *)
    mutable b_frozen : (string * string option) list;
        (* the committed frozen range plus any FREEZE decided earlier in
           this batch: the committed [frozen] only flips when the instance
           commits, so a prepare batched after the freeze marker would
           otherwise vote YES on keys whose slice is about to ship without
           its ops.
           Writes and single-shard commits gate on the committed range
           only: their effects land in this instance's state update,
           which the export sees. *)
    b_decided : (int, bool) Hashtbl.t;
        (* 2PC decisions taken earlier in this batch: the committed
           [prepared] and [txn_outcomes] also flip only at commit, so
           without this a commit and a racing abort for one tid would
           both claim the branch *)
    mutable b_requests : request list;
    mutable b_replies : reply list;  (* decided with the instance *)
    mutable b_to_send : reply list;  (* released at commit time *)
    mutable b_instant : reply list;  (* released now, outside consensus *)
  }

  type verdict = Execute | Park | Redirect | Conflict

  let committed_frozen t =
    match t.tables.frozen with Some (_, lo, hi, _) -> [ (lo, hi) ] | None -> []

  (* Does [hit] hold for a prepared cross-shard lock: a branch whose 2PC
     prepare committed, or that voted YES earlier in this batch, and
     whose decision is still pending? *)
  let prepared_lock t b hit =
    hit b.b_prepared
    || Hashtbl.fold (fun _ (p : Committed.prepared) acc -> acc || hit p.p_footprint)
         t.tables.prepared false

  (* T-Paxos first-committer-wins: did a write overlapping [fp] commit
     after the branch's snapshot at [base]? An instance already evicted
     from the window counts as a conflict. *)
  let window_conflict t ~base fp =
    let cp = Plog.commit_point t.log in
    let rec scan i =
      i <= cp
      &&
      match Hashtbl.find_opt t.recent_footprints i with
      | None -> true
      | Some w -> Footprint.overlaps fp w || scan (i + 1)
    in
    scan (base + 1)

  (* The batch gate (DESIGN.md §5), in order: a range this group
     handed away redirects (the client adopts the attached map); a range
     a FREEZE is moving parks the item until the migration decides (reads
     of it still serve: its content is immutable); a prepared cross-shard
     lock parks a write behind the decision but fails a transaction
     (first-prepared-wins); and a transaction branched at [base]
     conflicts with an overlapping write committed since or executed
     earlier in this batch. *)
  let gate t b ~frozen ?base fp =
    if Footprint.hits_ranges fp t.tables.moved then Redirect
    else if Footprint.hits_ranges fp frozen then Park
    else
      let locked = prepared_lock t b (Footprint.overlaps fp) in
      match base with
      | None -> if locked then Park else Execute
      | Some base ->
        if locked || window_conflict t ~base fp || Footprint.overlaps fp b.b_written
        then Conflict
        else Execute

  (* Answer [r] at once: aborts, conflicts and redirects need no
     consensus. *)
  let reply_now (l : leadership) b ?(payload = "") (r : request) status =
    Hashtbl.remove l.l_queued_ids r.id;
    b.b_instant <- { req = r.id; status; payload } :: b.b_instant

  (* Decide [r], after [ops], in the batch's instance. Its reply is
     released at commit time, so the outcome is as durable as the log
     before the client may act on it. *)
  let decide b ?(ops = []) ?(op_replies = []) ?(payload = "") (r : request) status =
    let reply = { req = r.id; status; payload } in
    b.b_requests <- r :: List.rev_append ops b.b_requests;
    b.b_replies <- reply :: List.rev_append op_replies b.b_replies;
    b.b_to_send <- reply :: b.b_to_send

  (* Replay a branch's recorded ops on [st]: with their witnesses, or
     re-executed if the op was deterministic (no witness). *)
  let replay_ops t st ops =
    List.fold_left
      (fun st ((r : request), witness) ->
        let op = S.decode_op r.payload in
        match witness with
        | Some w -> fst (S.replay st op ~witness:w)
        | None -> (S.apply ~rng:t.rng ~now:t.now st op).state)
      st ops

  (* Commit a transaction branch: rebase its ops onto the running batch
     state and decide them together with the commit marker [r]. *)
  let commit_branch t b (r : request) ~ops ~op_replies ~fp =
    b.b_state <- replay_ops t b.b_state ops;
    decide b ~ops:(List.map fst ops) ~op_replies r Ok;
    b.b_written <- Footprint.union b.b_written fp

  let txn_key (r : request) tid = (Ids.Client_id.to_int r.id.client, tid)

  (* The leader-local branch that commit or prepare [r] closes, taken
     out of the table. [None] if its ops were lost to a leader switch
     (§3.6), or if the op count the client put in [r]'s payload shows
     this leader missed some: the branch must not commit partially. *)
  let take_branch (l : leadership) (r : request) ~tid =
    match Hashtbl.find_opt l.l_txns (txn_key r tid) with
    | None -> None
    | Some txn ->
      Hashtbl.remove l.l_txns (txn_key r tid);
      let expected =
        try Grid_codec.Wire.decode r.payload Grid_codec.Wire.Decoder.uint
        with _ -> List.length txn.tx_ops
      in
      if List.length txn.tx_ops = expected then Some txn else None

  (* Park [w] until a decision instance re-queues it. *)
  let park (l : leadership) w = l.l_blocked <- w :: l.l_blocked

  (* A parked commit or prepare keeps its branch, to be re-gated then. *)
  let park_branch l (r : request) ~tid txn w =
    Hashtbl.replace l.l_txns (txn_key r tid) txn;
    park l w

  let exec_write t l b (r : request) =
    let op = S.decode_op r.payload in
    let fp = Footprint.of_keys (S.footprint op) in
    match gate t b ~frozen:(committed_frozen t) fp with
    | Redirect -> reply_now l b r (wrong_epoch t)
    | Park | Conflict ->
      (* Writes never conflict: they wait, keeping their [l_queued_ids]
         slot so retransmissions stay deduplicated, and re-queue when the
         migration or the prepared branch decides. *)
      park l (W_write r)
    | Execute ->
      let outcome = S.apply ~rng:t.rng ~now:t.now b.b_state op in
      b.b_state <- outcome.state;
      b.b_witness <- outcome.witness;
      decide b ~payload:(S.encode_result outcome.result) r Ok;
      b.b_written <- Footprint.union b.b_written fp

  (* Single-shard T-Paxos commit of a leader-local branch. A branch whose
     shard handed away part of its footprint mid-transaction gets a typed
     redirect, never a commit of half its keys under the successor map. *)
  let exec_txn_commit t l b (r : request) ~tid =
    match take_branch l r ~tid with
    | None -> reply_now l b r Txn_aborted
    | Some txn -> (
      match gate t b ~frozen:(committed_frozen t) ~base:txn.tx_base txn.tx_footprint with
      | Redirect -> reply_now l b r (wrong_epoch t)
      | Park -> park_branch l r ~tid txn (W_txn_commit r)
      | Conflict -> reply_now l b r Txn_conflict
      | Execute ->
        commit_branch t b r ~ops:(List.rev txn.tx_ops)
          ~op_replies:(List.rev txn.tx_replies) ~fp:txn.tx_footprint)

  (* A [Txn_commit] or [Txn_abort]: a 2PC decision when the tid is
     decided or prepared, otherwise a single-shard commit. *)
  let exec_decision t l b (r : request) =
    let tid = match r.rtype with Txn_commit tid | Txn_abort tid -> tid | _ -> -1 in
    let decided =
      match Hashtbl.find_opt b.b_decided tid with
      | Some _ as d -> d
      | None -> Hashtbl.find_opt t.tables.txn_outcomes tid
    in
    match (decided, Hashtbl.find_opt t.tables.prepared tid, r.rtype) with
    | Some committed, _, _ ->
      (* Decision tombstone: a duplicate decision, or a coordinator racing
         its own recovery. Nothing re-executes; [Ok] to an abort of a
         committed transaction tells recovery the decision was COMMIT. *)
      reply_now l b r (if committed then Ok else Txn_aborted)
    | None, Some p, Txn_commit _ ->
      (* COMMIT for a branch this group voted YES on: its ops, their
         replies and the marker commit in this one instance, and
         [Committed.track] releases the lock when it does. *)
      commit_branch t b r ~ops:p.p_ops ~op_replies:p.p_replies ~fp:p.p_footprint;
      Hashtbl.replace b.b_decided tid true
    | None, Some _, _ ->
      (* ABORT for a prepared branch: the marker alone is decided. *)
      decide b r Txn_aborted;
      Hashtbl.replace b.b_decided tid false
    | None, None, Txn_abort _ -> reply_now l b r Txn_aborted  (* presumed abort *)
    | None, None, _ -> exec_txn_commit t l b r ~tid

  (* A 2PC prepare votes YES by freezing the branch into the prepare
     request itself — the committed instance carries everything a
     failover leader needs to finish the transaction — and locking its
     footprint until the decision. Nothing applies to the batch state;
     the vote releases at commit time, which makes it a crash-safe
     promise. A NO vote needs no durability: recovery presumes abort. *)
  let exec_prepare t l b (r : request) =
    let tid = match r.rtype with Txn_prepare tid -> tid | _ -> -1 in
    match Hashtbl.find_opt t.tables.txn_outcomes tid with
    | Some committed -> reply_now l b r (if committed then Ok else Txn_aborted)
    | None when Hashtbl.mem t.tables.prepared tid -> reply_now l b r Ok  (* idempotent YES *)
    | None -> (
      match take_branch l r ~tid with
      | None -> reply_now l b r Txn_aborted
      | Some txn -> (
        match gate t b ~frozen:b.b_frozen ~base:txn.tx_base txn.tx_footprint with
        | Redirect -> reply_now l b r (wrong_epoch t)
        | Park -> park_branch l r ~tid txn (W_txn_prepare r)
        | Conflict -> reply_now l b r Txn_conflict
        | Execute ->
          let p =
            {
              Committed.p_ops = List.rev txn.tx_ops;
              p_replies = List.rev txn.tx_replies;
              p_footprint = txn.tx_footprint;
            }
          in
          decide b { r with payload = Committed.encode_prepared p } Ok;
          b.b_prepared <- Footprint.union b.b_prepared p.p_footprint))

  (* Reshard markers decide through consensus; [Committed.track] performs
     the transition when the instance commits, on every replica alike. *)
  let exec_reshard t l b (r : request) =
    let aborted e = Hashtbl.mem t.tables.reshard_aborted e in
    match r.rtype with
    | Reshard_freeze e -> (
      if aborted e then reply_now l b r Txn_aborted
      else if e <= t.tables.reshard_epoch then
        (* Stale coordinator: hand it the current map. *)
        reply_now l b r (wrong_epoch t)
      else
        match t.tables.frozen with
        | Some (e', _, _, _) when e' = e -> reply_now l b r Ok
        | Some _ -> reply_now l b r Txn_aborted  (* one migration at a time *)
        | None -> (
          match Reshard_wire.decode_freeze r.payload with
          | { f_lo; f_hi; _ } ->
            (* A prepared branch over the moving range takes effect only
               at its COMMIT decision, after the slice would ship: freezing
               under it would drop those writes at the new owner. Refuse;
               the coordinator burns the epoch and retries once the
               decision drains. *)
            let range = [ (f_lo, f_hi) ] in
            if prepared_lock t b (fun fp -> Footprint.hits_ranges fp range) then
              reply_now l b r Txn_aborted
            else begin
              b.b_frozen <- (f_lo, f_hi) :: b.b_frozen;
              decide b r Ok
            end
          | exception _ -> reply_now l b r Txn_aborted))
    | Reshard_install e -> (
      if aborted e then reply_now l b r Txn_aborted
      else if e <= t.tables.reshard_epoch then reply_now l b r Ok  (* already done *)
      else
        match t.tables.installed with
        | Some (e', _, _, _) when e' = e -> reply_now l b r Ok
        | _ -> (
          match Reshard_wire.decode_install r.payload with
          | env ->
            (* Import into the batch state, so the shipped update carries
               the slice to followers (and Catchup snapshots to laggards).
               [import_range] is idempotent, so replays are harmless. *)
            b.b_state <- S.import_range b.b_state env.i_blob;
            decide b r Ok
          | exception _ -> reply_now l b r Txn_aborted))
    | Reshard_commit e ->
      if e <= t.tables.reshard_epoch then reply_now l b r Ok  (* duplicate *)
      else if aborted e then reply_now l b r Txn_aborted
      else decide b r Ok
    | Reshard_abort e ->
      if t.tables.reshard_epoch >= e then
        (* The commit won the race: [Ok] with the committed map tells a
           recovering coordinator the outcome was COMMIT. *)
        reply_now l b ~payload:t.tables.reshard_map r Ok
      else if aborted e then reply_now l b r Txn_aborted
      else decide b r Txn_aborted
    | _ -> reply_now l b r Txn_aborted

  (* ------------------------------------------------------------------ *)
  (* Stepping down                                                       *)

  (* Returns the actions of the demotion: a typed [Retry] reply for every
     pending read, so clients fail over to the new leader immediately
     instead of waiting out their retransmission timers. (Transactions
     are lost, so their commits will abort, §3.6.) Stale pre-confirms
     must not survive into a later leadership of this replica. *)
  let step_down t =
    let acts =
      match t.role with
      | Leader l ->
        let dropped =
          Hashtbl.fold
            (fun id _ acc -> { req = id; status = Retry; payload = "" } :: acc)
            l.l_reads []
        in
        let dropped =
          List.fold_left
            (fun acc (r : request) ->
              { req = r.id; status = Retry; payload = "" } :: acc)
            dropped l.l_deferred_reads
        in
        Hashtbl.reset l.l_reads;
        l.l_deferred_reads <- [];
        Hashtbl.reset l.l_txns;
        Queue.clear l.l_queue;
        Hashtbl.reset l.l_queued_ids;
        l.l_phase <- None;
        t.role <- Follower;
        reply_actions dropped
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

  (* Propose [proposal] at [instance]; a single-replica group has its
     quorum at once. *)
  let rec start_accept t (l : leadership) ~instance ~proposal ~post_state ~to_send =
    span_requests t Span.Propose ~instance proposal.requests;
    let acks = Bitset.create t.cfg.n in
    Bitset.set acks t.rid;
    ignore (Plog.accept t.log ~instance ~ballot:l.l_ballot proposal);
    persist t (Entry { instance; ballot = l.l_ballot; proposal });
    let fl =
      {
        fl_instance = instance;
        fl_proposal = proposal;
        fl_acks = acks;
        fl_post_state = post_state;
        fl_to_send = to_send;
      }
    in
    l.l_phase <- Some (Ph_prop fl);
    let acts =
      broadcast t (Accept { ballot = l.l_ballot; instance; proposal })
      @ [ after ~delay:t.cfg.accept_retry_ms (Accept_retry instance) ]
    in
    if quorum t <= 1 then acts @ do_commit t l fl else acts

  (* Commit the in-flight instance (majority of accept-acks reached). *)
  and do_commit t (l : leadership) (fl : inflight) =
    span_requests t Span.Accept_quorum ~instance:fl.fl_instance fl.fl_proposal.requests;
    ignore (Plog.commit t.log ~instance:fl.fl_instance);
    persist t (Commit_point (Plog.commit_point t.log));
    t.app_state <- fl.fl_post_state;
    let prepared_before = Hashtbl.length t.tables.prepared in
    let frozen_before = t.tables.frozen in
    on_committed t ~mode:Live ~instance:fl.fl_instance fl.fl_proposal;
    (* A decision instance just released a prepared cross-shard lock, or
       a reshard decision resolved the frozen range (COMMIT turns it
       into a moved range, ABORT thaws it): writes stashed behind either
       become eligible again. Re-queue the lot — pump re-checks each
       against the remaining locks, answering [Wrong_epoch] for writes
       whose range moved away. *)
    if
      (Hashtbl.length t.tables.prepared < prepared_before
      || (frozen_before <> None && t.tables.frozen = None))
      && l.l_blocked <> []
    then begin
      List.iter (fun w -> Queue.add w l.l_queue) (List.rev l.l_blocked);
      l.l_blocked <- []
    end;
    List.iter
      (fun (r : request) -> Hashtbl.remove l.l_queued_ids r.id)
      fl.fl_proposal.requests;
    l.l_phase <- None;
    span_requests t Span.Commit ~instance:fl.fl_instance fl.fl_proposal.requests;
    (* Lost-ack watchdog: every Ok reply released here must correspond to
       a commit just recorded above. *)
    List.iter
      (fun (r : reply) ->
        match r.status with
        | Ok ->
          Watchdog.write_acked t.wd
            ~client:(Ids.Client_id.to_int r.req.client)
            ~seq:r.req.seq
        | _ -> ())
      fl.fl_to_send;
    broadcast t (Commit { ballot = l.l_ballot; instance = fl.fl_instance })
    @ reply_actions fl.fl_to_send
    @ pump t

  (* Drive the leader pipeline: re-proposals first, then queued work. *)
  and pump t =
    match t.role with
    | Leader ({ l_phase = None; _ } as l) -> (
      match l.l_repropose with
      | (instance, proposal) :: rest ->
        l.l_repropose <- rest;
        if instance <> Plog.commit_point t.log + 1 then
          (* A hole in the recovered sequence cannot correspond to any
             chosen instance (the old leader proposed sequentially); drop
             the tail defensively. *)
          (l.l_repropose <- [];
           (* Entries above a hole can never have been chosen, so reads
              need not wait for them either. *)
           l.l_recover_until <- Plog.commit_point t.log;
           note "dropped non-contiguous recovered entries from %d" instance :: pump t)
        else begin
          (* Re-propose under our ballot. The post-state comes from the
             recovered update itself. *)
          start_accept t l ~instance ~proposal ~post_state:(adopt t.app_state proposal)
            ~to_send:proposal.replies
        end
      | [] ->
        (* Recovery (if any) has fully committed once the commit point
           reaches the last recovered instance: release the reads that
           arrived in the window where our state could still be missing
           writes the old leader had answered. *)
        let released =
          if
            l.l_deferred_reads <> []
            && Plog.commit_point t.log >= l.l_recover_until
          then begin
            let pending = List.rev l.l_deferred_reads in
            l.l_deferred_reads <- [];
            List.concat_map (fun r -> admit_read t l r) pending
          end
          else []
        in
        released @ pump_queue t l)
    | _ -> []

  and pump_queue t (l : leadership) =
    match Queue.take_opt l.l_queue with
        | None -> []
        | Some first ->
          (* Batch every queued work item — writes and transaction
             commits — into one instance: the decided value is
             ⟨batch, state-after-batch⟩, which preserves the no-gap rule
             while letting throughput scale with the number of
             closed-loop clients (cf. Figures 5–6 and 9). Requests that
             committed while queued (e.g. via a re-proposal) are filtered
             here and answered from the dedup cache. *)
          let batch = ref [ first ] in
          let continue_batch = ref true in
          while !continue_batch do
            match Queue.peek_opt l.l_queue with
            | Some w when List.length !batch < t.cfg.max_batch ->
              ignore (Queue.take l.l_queue);
              batch := w :: !batch
            | _ -> continue_batch := false
          done;
          let stale_replies = ref [] in
          let fresh =
            List.filter
              (fun w ->
                let r =
                  match w with
                  | W_write r | W_txn_commit r | W_txn_prepare r | W_reshard r -> r
                in
                match dedup_lookup t r with
                | `Fresh -> true
                | `Resend reply ->
                  Hashtbl.remove l.l_queued_ids r.id;
                  stale_replies := reply :: !stale_replies;
                  false
                | `Stale ->
                  Hashtbl.remove l.l_queued_ids r.id;
                  false)
              (List.rev !batch)
          in
          let resend = reply_actions !stale_replies in
          if fresh = [] then resend @ pump t
          else resend @ begin_execution t l (Exec_batch fresh)

  (* Admit a read into the window and start executing it. Callers have
     already checked admission control and that recovery is complete
     (the leader's state covers every instance the old leader could
     have answered from). *)
  and admit_read t (l : leadership) (r : request) =
    if Hashtbl.mem l.l_reads r.id then []
    else begin
      let confirms =
        match Hashtbl.find_opt t.pre_confirms r.id with
        | Some (b, set) ->
          Hashtbl.remove t.pre_confirms r.id;
          (* Confirms stashed under an earlier leadership of this replica
             confirmed a promise that may since have been usurped and
             re-won: they say nothing about the current ballot. *)
          if Ballot.equal b l.l_ballot then set else Bitset.create t.cfg.n
        | None -> Bitset.create t.cfg.n
      in
      Bitset.set confirms t.rid;
      let pr =
        {
          pr_request = r;
          pr_confirms = confirms;
          pr_exec_done = false;
          pr_result = "";
          pr_leased = holds_lease t ~now:t.now;
          pr_watermark = Plog.commit_point t.log;
          pr_exec_point = -1;
        }
      in
      Hashtbl.replace l.l_reads r.id pr;
      begin_execution t l (Exec_read r)
    end

  (* Defer work behind the execution cost E, or run it inline if E = 0. *)
  and begin_execution t (_l : leadership) work =
    if t.cfg.execution_cost_ms > 0.0 then begin
      let tok = t.exec_next in
      t.exec_next <- t.exec_next + 1;
      Hashtbl.replace t.exec_table tok work;
      let cost =
        match work with
        | Exec_batch batch ->
          (match t.role with Leader l -> l.l_phase <- Some Ph_exec | _ -> ());
          (* Transaction ops already paid E when they executed; only the
             fresh writes in the batch consume execution time now. *)
          let writes =
            List.length (List.filter (function W_write _ -> true | _ -> false) batch)
          in
          t.cfg.execution_cost_ms *. Float.of_int (Stdlib.max 1 writes)
        | _ -> t.cfg.execution_cost_ms
      in
      [ after ~delay:cost (Exec_done tok) ]
    end
    else
      match t.role with
      | Leader l -> finish_execution t l work
      | _ -> []

  and execute_batch t l items =
    let b =
      {
        b_state = t.app_state;
        b_witness = None;
        b_written = Footprint.empty;
        b_prepared = Footprint.empty;
        b_frozen = committed_frozen t;
        b_decided = Hashtbl.create 4;
        b_requests = [];
        b_replies = [];
        b_to_send = [];
        b_instant = [];
      }
    in
    List.iter
      (function
        | W_write r -> exec_write t l b r
        | W_txn_commit r -> exec_decision t l b r
        | W_txn_prepare r -> exec_prepare t l b r
        | W_reshard r -> exec_reshard t l b r)
      items;
    let instant = reply_actions (List.rev b.b_instant) in
    match List.rev b.b_requests with
    | [] -> instant @ pump t
    | requests ->
      let update =
        make_update t ~old_state:t.app_state ~new_state:b.b_state
          ~witness:(match requests with [ _ ] -> b.b_witness | _ -> None)
      in
      let proposal = { requests; update; replies = List.rev b.b_replies } in
      let instance = Plog.commit_point t.log + 1 in
      span_requests t Span.Apply ~instance requests;
      instant
      @ start_accept t l ~instance ~proposal ~post_state:b.b_state
          ~to_send:(List.rev b.b_to_send)

  (* The service's [apply] reads the leader's local clock from [t.now],
     which [handle] refreshes on every input. *)
  and finish_execution t (l : leadership) work =
    match work with
    | Exec_batch items -> execute_batch t l items
    | Exec_read r -> (
      match Hashtbl.find_opt l.l_reads r.id with
      | None -> []
      | Some pr ->
        let op = S.decode_op r.payload in
        let outcome = S.apply ~rng:t.rng ~now:t.now t.app_state op in
        (* Reads must not change state; the post-state is discarded. *)
        pr.pr_exec_done <- true;
        pr.pr_result <- S.encode_result outcome.result;
        pr.pr_exec_point <- Plog.commit_point t.log;
        Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
          ~actor:t.actor ~req:r.id ~instance:(-1) ~detail:"" Span.Apply;
        check_read_ready t l pr)
    | Exec_original r ->
      (* Unreplicated baseline: execute and answer with no coordination. *)
      let op = S.decode_op r.payload in
      let outcome = S.apply ~rng:t.rng ~now:t.now t.app_state op in
      t.app_state <- outcome.state;
      Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
        ~actor:t.actor ~req:r.id ~instance:(-1) ~detail:"" Span.Apply;
      reply_actions [ { req = r.id; status = Ok; payload = S.encode_result outcome.result } ]
    | Exec_txn_op r -> (
      match r.rtype with
      | Txn_op tid ->
        let key = (Ids.Client_id.to_int r.id.client, tid) in
        let txn =
          match Hashtbl.find_opt l.l_txns key with
          | Some txn -> txn
          | None ->
            let txn =
              {
                tx_state = t.app_state;
                tx_base = Plog.commit_point t.log;
                tx_ops = [];
                tx_replies = [];
                tx_footprint = Footprint.empty;
              }
            in
            Hashtbl.replace l.l_txns key txn;
            txn
        in
        let op = S.decode_op r.payload in
        let outcome = S.apply ~rng:t.rng ~now:t.now txn.tx_state op in
        txn.tx_state <- outcome.state;
        txn.tx_ops <- (r, outcome.witness) :: txn.tx_ops;
        txn.tx_footprint <- Footprint.union txn.tx_footprint (Footprint.of_keys (S.footprint op));
        let reply = { req = r.id; status = Ok; payload = S.encode_result outcome.result } in
        txn.tx_replies <- reply :: txn.tx_replies;
        Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
          ~actor:t.actor ~req:r.id ~instance:(-1) ~detail:"" Span.Apply;
        reply_actions [ reply ]
      | _ -> [])

  and check_read_ready t (l : leadership) pr =
    if not pr.pr_exec_done then []
    else if pr.pr_leased && holds_lease t ~now:t.now then begin
      (* Lease fast path: execution alone completes the read — no
         confirm round, zero protocol messages. *)
      Hashtbl.remove l.l_reads pr.pr_request.id;
      Span.Recorder.span ~tid:pr.pr_request.trace.tid ~parent:pr.pr_request.trace.parent
        t.obs ~time:t.now ~actor:t.actor ~req:pr.pr_request.id ~instance:(-1) ~detail:""
        Span.Lease_local;
      Watchdog.lease_claimed t.wd ~now:t.now ~until:(lease_horizon t l)
        ~slack_ms:(2.0 *. t.cfg.clock_skew_bound_ms);
      Watchdog.read_replied t.wd
        ~client:(Ids.Client_id.to_int pr.pr_request.id.client)
        ~seq:pr.pr_request.id.seq ~watermark:pr.pr_watermark
        ~exec_point:pr.pr_exec_point;
      reply_actions [ { req = pr.pr_request.id; status = Ok; payload = pr.pr_result } ]
    end
    else begin
      (* The lease lapsed (or was never held): fall back to the confirm
         protocol. Confirms have been flowing regardless — clients
         broadcast reads to every replica — so the quorum may already be
         in hand. *)
      if pr.pr_leased then pr.pr_leased <- false;
      if Bitset.cardinal pr.pr_confirms >= quorum t then begin
        Hashtbl.remove l.l_reads pr.pr_request.id;
        Watchdog.read_replied t.wd
          ~client:(Ids.Client_id.to_int pr.pr_request.id.client)
          ~seq:pr.pr_request.id.seq ~watermark:pr.pr_watermark
          ~exec_point:pr.pr_exec_point;
        reply_actions [ { req = pr.pr_request.id; status = Ok; payload = pr.pr_result } ]
      end
      else []
    end

  (* ------------------------------------------------------------------ *)
  (* Client request dispatch                                             *)

  (* Admission control. The write window is the leader's pending queue
     ([max_queue]); the read window is the pending-read table
     ([max_inflight]). Reads are additionally shed once the write queue
     passes half its bound — shed-reads-before-writes: a shed read costs
     the client one round trip, a shed write loses queued work, so under
     pressure reads yield their CPU share to the write pipeline first. *)

  let retry_after_ms t backlog =
    (* Rough time to drain the backlog at the configured execution cost
       (floored so zero-cost services still push clients back at least
       one heartbeat), scaled by the backlog itself. *)
    let per_item = Float.max 0.05 t.cfg.execution_cost_ms in
    Float.max t.cfg.hb_period_ms (Float.of_int backlog *. per_item)

  let shed t (r : request) ~backlog =
    (match r.rtype with
    | Read -> t.shed_reads <- t.shed_reads + 1
    | _ -> t.shed_writes <- t.shed_writes + 1);
    Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
      ~actor:t.actor ~req:r.id ~instance:(-1) ~detail:"shed" Span.Leader_receive;
    reply_actions
      [
        {
          req = r.id;
          status = Overloaded { retry_after_ms = retry_after_ms t backlog };
          payload = "";
        };
      ]

  let write_window_full t (l : leadership) =
    t.cfg.max_queue > 0 && Queue.length l.l_queue >= t.cfg.max_queue

  let read_window_full t (l : leadership) =
    (t.cfg.max_inflight > 0
    && Hashtbl.length l.l_reads + List.length l.l_deferred_reads
       >= t.cfg.max_inflight)
    || (t.cfg.max_queue > 0 && Queue.length l.l_queue >= (t.cfg.max_queue + 1) / 2)

  (* Admit a fresh write-path request to the batch queue. *)
  let enqueue t (l : leadership) (r : request) w =
    match dedup_lookup t r with
    | `Resend reply -> reply_actions [ reply ]
    | `Stale -> []
    | `Fresh ->
      if Hashtbl.mem l.l_queued_ids r.id then []
      else if write_window_full t l then
        (* Shed before touching [l_queued_ids]: an [Overloaded] reply
           promises nothing, so the retransmission must be admittable
           from scratch once the queue drains. *)
        shed t r ~backlog:(Queue.length l.l_queue)
      else begin
        Hashtbl.replace l.l_queued_ids r.id ();
        Queue.add w l.l_queue;
        pump t
      end

  (* A service op that does not decode would raise where it executes, so
     the leader drops it on arrival: no admission slot, no instance. *)
  let malformed (r : request) =
    match r.rtype with
    | Read | Original | Write | Txn_op _ -> (
      match S.decode_op r.payload with _ -> false | exception _ -> true)
    | _ -> false

  let leader_handle_client t (l : leadership) (r : request) =
    if malformed r then [ note "dropped %a: op does not decode" Ids.Request_id.pp r.id ]
    else
    let detail =
      match r.rtype with
      | Read when holds_lease t ~now:t.now -> "read_leased"
      | _ -> rtype_label r.rtype
    in
    Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
      ~actor:t.actor ~req:r.id ~instance:(-1) ~detail Span.Leader_receive;
    (* Hop boundary: everything downstream of this receive — propose,
       apply, commit, the followers' state-ship spans — parents under it,
       so the stitched tree shows client -> leader -> quorum edges. *)
    let r =
      if r.trace.tid = 0 then r
      else { r with trace = { r.trace with parent = t.sid_receive } }
    in
    match r.rtype with
    | Read when t.tables.moved <> [] && Footprint.hits_ranges (op_footprint r) t.tables.moved ->
      (* The key range moved to another group: answer with the current
         map so the client re-routes. Reads of a *frozen* range still
         serve below — a frozen range is immutable, so its content here
         stays correct until the commit flips ownership. *)
      reply_actions [ { req = r.id; status = wrong_epoch t; payload = "" } ]
    | Read ->
      (* A retransmission of a read we already hold is not re-admitted
         (it is already in the window). *)
      if Hashtbl.mem l.l_reads r.id then []
      else if
        List.exists
          (fun (r' : request) -> Ids.Request_id.equal r'.id r.id)
          l.l_deferred_reads
      then []
      else if read_window_full t l then
        shed t r ~backlog:(Queue.length l.l_queue + Hashtbl.length l.l_reads)
      else if Plog.commit_point t.log < l.l_recover_until then begin
        (* Freshly elected and still re-proposing recovered instances:
           our state may be missing writes the old leader answered, so
           executing this read now could travel back in time. It holds
           its admission slot and runs when recovery commits. *)
        Span.Recorder.span ~tid:r.trace.tid ~parent:r.trace.parent t.obs ~time:t.now
          ~actor:t.actor ~req:r.id ~instance:(-1) ~detail:"read_deferred"
          Span.Leader_receive;
        l.l_deferred_reads <- r :: l.l_deferred_reads;
        []
      end
      else admit_read t l r
    | Original -> begin_execution t l (Exec_original r)
    | Write -> enqueue t l r (W_write r)
    | Txn_commit _ -> enqueue t l r (W_txn_commit r)
    | Txn_prepare _ -> enqueue t l r (W_txn_prepare r)
    | Reshard_freeze _ | Reshard_install _ | Reshard_commit _ | Reshard_abort _ ->
      enqueue t l r (W_reshard r)
    | Txn_op _ -> begin_execution t l (Exec_txn_op r)
    | Txn_abort tid ->
      if Hashtbl.mem t.tables.prepared tid then
        (* Aborting a prepared cross-shard branch is itself a 2PC
           decision: it must be replicated through the log (same path as
           a commit decision) so every replica releases the lock and
           records the tombstone. *)
        enqueue t l r (W_txn_commit r)
      else (
        match Hashtbl.find_opt t.tables.txn_outcomes tid with
        | Some true ->
          (* Cannot abort: the commit decision already committed. [Ok]
             tells a recovering coordinator the outcome was COMMIT. *)
          reply_actions [ { req = r.id; status = Ok; payload = "" } ]
        | Some false ->
          reply_actions [ { req = r.id; status = Txn_aborted; payload = "" } ]
        | None ->
          (* Leader-local branch (or nothing at all): discard instantly,
             no consensus needed — the branch never escaped this leader. *)
          let key = (Ids.Client_id.to_int r.id.client, tid) in
          Hashtbl.remove l.l_txns key;
          reply_actions [ { req = r.id; status = Txn_aborted; payload = "" } ])

  let follower_handle_client t (r : request) =
    match r.rtype with
    | Read -> (
      (* X-Paxos: confirm to the holder of the highest accepted ballot. *)
      match leader_view t with
      | Some holder when holder <> t.rid ->
        [
          send ~dst:holder
            (Read_confirm
               { ballot = t.promised; req = r.id; lease_anchor = lease_echo t });
        ]
      | _ -> [])
    | Write | Original | Txn_op _ | Txn_commit _ | Txn_abort _ | Txn_prepare _
    | Reshard_freeze _ | Reshard_install _ | Reshard_commit _ | Reshard_abort _ ->
      []

  (* ------------------------------------------------------------------ *)
  (* Election                                                            *)

  let alive t ~now =
    List.filter
      (fun r -> r = t.rid || now -. t.last_heard.(r) <= t.cfg.suspicion_ms)
      (Config.replica_ids t.cfg)

  let become_leader t (c : candidacy) =
    (match c.c_snapshot with Some snap -> install_snapshot t snap | None -> ());
    let cp = Plog.commit_point t.log in
    let entries =
      Hashtbl.fold (fun i (_, p) acc -> if i > cp then (i, p) :: acc else acc) c.c_merged []
      |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    in
    (* Keep only the contiguous run starting at cp+1. *)
    let repropose =
      let rec take expect = function
        | (i, p) :: rest when i = expect -> (i, p) :: take (expect + 1) rest
        | _ -> []
      in
      take (cp + 1) entries
    in
    let l_queued_ids = Hashtbl.create 16 in
    (* Requests being re-proposed are already in flight: without this a
       client retransmission would queue (and execute) them a second
       time. *)
    List.iter
      (fun (_, (p : proposal)) ->
        List.iter (fun (r : request) -> Hashtbl.replace l_queued_ids r.id ()) p.requests)
      repropose;
    (* Confirms stashed while we were a follower or candidate confirmed
       some earlier leadership; they must not count toward our reads. *)
    Hashtbl.reset t.pre_confirms;
    t.role <-
      Leader
        {
          l_ballot = c.c_ballot;
          l_queue = Queue.create ();
          l_phase = None;
          l_repropose = repropose;
          l_recover_until = cp + List.length repropose;
          l_deferred_reads = [];
          l_reads = Hashtbl.create 16;
          l_txns = Hashtbl.create 8;
          l_blocked = [];
          l_queued_ids;
          l_grants = Array.make t.cfg.n neg_infinity;
        };
    note "leader with ballot %a, reproposing %d entries" Ballot.pp c.c_ballot
      (List.length repropose)
    :: pump t

  let start_prepare t ~now:_ =
    t.round_seen <- t.round_seen + 1;
    let ballot = Ballot.make ~round:t.round_seen ~holder:t.rid in
    t.promised <- ballot;
    persist t (Promise ballot);
    let acks = Bitset.create t.cfg.n in
    Bitset.set acks t.rid;
    let merged = Hashtbl.create 8 in
    List.iter
      (fun (e : recovery_entry) -> Hashtbl.replace merged e.instance (e.ballot, e.proposal))
      (Plog.accepted_above t.log (Plog.commit_point t.log));
    let candidacy =
      { c_ballot = ballot; c_acks = acks; c_merged = merged; c_snapshot = None }
    in
    t.role <- Candidate candidacy;
    t.candidate_since <- None;
    if Bitset.cardinal acks >= quorum t then
      (* Single-replica group: the self-promise is already a majority. *)
      become_leader t candidacy
    else
      note "starting prepare with ballot %a" Ballot.pp ballot
      :: broadcast t (Prepare { ballot; commit_point = Plog.commit_point t.log })
      @ [ after ~delay:t.cfg.prepare_retry_ms (Prepare_retry ballot.round) ]

  (* ------------------------------------------------------------------ *)
  (* Message handling                                                    *)

  let handle_prepare t ~now ~src ~ballot ~their_cp =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    if
      t.cfg.lease_ms > 0.0 && now < t.lease_until
      && ballot.Ballot.holder <> t.lease_holder
    then
      (* Lease enforcement: an unexpired grant refuses promises to any
         other candidate regardless of ballot height — the grant is the
         leader's licence to answer reads locally, and a quorum of
         intersecting refusals is exactly what makes that safe. The
         candidate keeps retrying (Prepare_retry) and wins once the
         grant expires on this clock. *)
      [ send ~dst:src (Reject { promised = t.promised }) ]
    else if Ballot.compare ballot t.promised >= 0 then begin
      (* A higher ballot deposes us; an equal one is a retry. *)
      let demoted = adopt_promise t ballot in
      t.candidate_since <- None;
      let my_cp = Plog.commit_point t.log in
      let snapshot =
        if my_cp > their_cp then Some (Snapshot.encode (current_snapshot t)) else None
      in
      let accepted = Plog.accepted_above t.log (Stdlib.max my_cp their_cp) in
      demoted
      @ [ send ~dst:src (Prepare_ack { ballot; commit_point = my_cp; snapshot; accepted }) ]
    end
    else [ send ~dst:src (Reject { promised = t.promised }) ]

  let handle_prepare_ack t ~src ~ballot ~snapshot ~accepted =
    match t.role with
    | Candidate c when Ballot.equal ballot c.c_ballot ->
      Bitset.set c.c_acks src;
      (match snapshot with
      | Some s ->
        let snap = Snapshot.decode s in
        (match c.c_snapshot with
        | Some best when best.commit_point >= snap.commit_point -> ()
        | _ -> c.c_snapshot <- Some snap)
      | None -> ());
      List.iter
        (fun (e : recovery_entry) ->
          match Hashtbl.find_opt c.c_merged e.instance with
          | Some (b, _) when Ballot.compare b e.ballot >= 0 -> ()
          | _ -> Hashtbl.replace c.c_merged e.instance (e.ballot, e.proposal))
        accepted;
      if Bitset.cardinal c.c_acks >= quorum t then become_leader t c else []
    | _ -> []

  let handle_accept t ~now ~src ~ballot ~instance ~proposal =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    if Ballot.compare ballot t.promised >= 0 then begin
      (* An equal ballot is our leader's (never our own: nobody sends
         itself an Accept). *)
      let demoted = adopt_promise t ballot in
      if Plog.accept t.log ~instance ~ballot proposal then
        persist t (Entry { instance; ballot; proposal });
      demoted @ [ send ~dst:src (Accept_ack { ballot; instance }) ]
    end
    else [ send ~dst:src (Reject { promised = t.promised }) ]

  let handle_accept_ack t ~src ~ballot ~instance =
    match t.role with
    | Leader l -> (
      match l.l_phase with
      | Some (Ph_prop fl)
        when fl.fl_instance = instance && Ballot.equal ballot l.l_ballot ->
        Bitset.set fl.fl_acks src;
        if Bitset.cardinal fl.fl_acks >= quorum t then do_commit t l fl else []
      | _ -> [])
    | _ -> []

  (* A follower learns an instance was chosen: mark it, then apply the
     updates of every newly contiguous committed instance in order. *)
  let handle_commit t ~now ~src ~ballot ~instance =
    heard t ~from:ballot.Ballot.holder ~now;
    observe_round t ballot.round;
    match t.role with
    | Leader _ -> []  (* leaders commit via accept-acks *)
    | Follower | Candidate _ ->
      let before = Plog.commit_point t.log in
      (* Only commit a value accepted at (or above) the committing ballot.
         An entry below it is a stale accept from a deposed proposer — the
         chosen value may differ (e.g. we rejected the current leader's
         Accept because a failed candidacy left us promised higher), so
         committing it would break agreement. An entry above it is safe:
         once chosen at [ballot], every higher-ballot proposal for the
         instance is bound to the same value. A missing instance at or
         below our commit point was truncated after a snapshot: it is
         committed, and a late or duplicated Commit for it needs no
         catch-up. *)
      let entry_current =
        match Plog.get t.log instance with
        | Some e -> e.committed || Ballot.compare e.ballot ballot >= 0
        | None -> instance <= before
      in
      if not (entry_current && Plog.commit t.log ~instance) then
        (* Never accepted this instance (or only a stale value): fetch a
           snapshot. *)
        [ send ~dst:src (Catchup_req { from_instance = before + 1 }) ]
      else begin
        apply_committed t ~mode:Live ~from:(before + 1);
        let after_cp = Plog.commit_point t.log in
        persist t (Commit_point after_cp);
        (* A commit beyond our contiguous prefix means we missed earlier
           instances: fetch a snapshot. *)
        if after_cp < instance then
          [ send ~dst:src (Catchup_req { from_instance = after_cp + 1 }) ]
        else []
      end

  let handle_read_confirm t ~src ~ballot ~req ~lease_anchor =
    match t.role with
    | Leader l when Ballot.equal ballot l.l_ballot -> (
      (* The confirm doubles as a lease renewal. *)
      record_grant t l ~src ~anchor:lease_anchor;
      match Hashtbl.find_opt l.l_reads req with
      | Some pr ->
        Bitset.set pr.pr_confirms src;
        check_read_ready t l pr
      | None ->
        let b =
          match Hashtbl.find_opt t.pre_confirms req with
          | Some (b0, set) when Ballot.equal b0 l.l_ballot -> set
          | _ ->
            let b = Bitset.create t.cfg.n in
            Hashtbl.replace t.pre_confirms req (l.l_ballot, b);
            (* Bound the pre-confirm table against stray confirms. *)
            if Hashtbl.length t.pre_confirms > 4096 then
              Hashtbl.reset t.pre_confirms;
            b
        in
        Bitset.set b src;
        [])
    | _ -> []

  let handle_reject t ~promised:their_promise =
    observe_round t their_promise.Ballot.round;
    match t.role with
    | (Leader _ | Candidate _) when Ballot.compare their_promise t.promised > 0 ->
      adopt_promise t their_promise @ [ note "deposed by ballot %a" Ballot.pp their_promise ]
    | _ -> adopt_promise t their_promise

  (* ------------------------------------------------------------------ *)
  (* Timers                                                              *)

  let on_hb_tick t ~now =
    heard t ~from:t.rid ~now;
    broadcast t
      (Heartbeat
         {
           round_seen = t.round_seen;
           commit_point = Plog.commit_point t.log;
           promised = t.promised;
           sent_at = now;
           lease_anchor = lease_echo t;
         })
    @ [ after ~delay:t.cfg.hb_period_ms Hb_tick ]

  (* Ω with stability: the candidate is the incumbent (the holder of the
     highest promise we know) as long as it is alive; only when it is
     suspected do we fall back to the lowest live id. *)
  let candidate t ~now =
    let alive_set = alive t ~now in
    match leader_view t with
    | Some holder when List.mem holder alive_set -> holder
    | _ -> List.fold_left Stdlib.min max_int alive_set

  (* Start the takeover unless a lease forbids it: our own grant (or the
     post-crash blackout) blocks our candidacy too, and the next
     heartbeat or suspicion tick after it expires re-evaluates, so
     liveness only shifts by up to one lease. The incumbent-first rule is
     re-checked: checking only for the lowest live id would deadlock a
     leader that restarted faster than the suspicion timeout — it is the
     holder, so nobody else arms candidacy, yet as a restarted follower
     it would refuse to prepare. *)
  let try_prepare t ~now =
    let leased = t.cfg.lease_ms > 0.0 && now < t.lease_until && t.lease_holder <> t.rid in
    if (not leased) && candidate t ~now = t.rid then start_prepare t ~now
    else begin
      t.candidate_since <- None;
      []
    end

  (* A follower that finds itself the candidate arms the stability
     hold-down; [on_stability_check] re-evaluates before preparing.
     Evaluated whenever a heartbeat arrives as well as on the suspicion
     tick. Every peer sends one each heartbeat period, carrying its
     promise, so a cold start arms as soon as a peer is heard and a
     silent leader is noticed within one heartbeat period of its
     suspicion timeout. The tick remains for a replica that hears nobody
     (n = 1 included) and to re-arm after a lease blocked a check.

     A fresh full view skips the hold-down: every replica is alive and
     no ballot exists anywhere we have heard ([round_seen] = 0; a
     heartbeat's round is observed before this runs). There is no leader
     to depose and everyone who sees everyone picks the lowest id, so
     only that replica prepares this way, once (its prepare raises
     [round_seen]). A peer that armed before hearing it costs at most one
     [Reject] round: liveness, never safety. *)
  let consider_candidacy t ~now =
    let candidate = candidate t ~now in
    match t.role with
    | Follower when candidate = t.rid ->
      if t.round_seen = 0 && List.length (alive t ~now) = t.cfg.n then try_prepare t ~now
      else (
        match t.candidate_since with
        | None ->
          t.candidate_since <- Some now;
          t.hold_token <- t.hold_token + 1;
          [ after ~delay:t.cfg.stability_ms (Stability_check t.hold_token) ]
        | Some _ -> [])
    | Follower | Candidate _ | Leader _ ->
      if candidate <> t.rid then t.candidate_since <- None;
      []

  let on_suspicion_tick t ~now =
    heard t ~from:t.rid ~now;
    consider_candidacy t ~now
    @ [ after ~delay:(t.cfg.suspicion_ms /. 2.0) Suspicion_tick ]

  (* A check armed for an earlier candidacy is ignored: it must not
     clear the [candidate_since] of a newer one. *)
  let on_stability_check t ~now ~token =
    if token <> t.hold_token then []
    else
      match (t.role, t.candidate_since) with
      | Follower, Some since when now -. since >= t.cfg.stability_ms -. 1e-9 ->
        try_prepare t ~now
      | _ ->
        t.candidate_since <- None;
        []

  let on_accept_retry t ~instance =
    match t.role with
    | Leader l -> (
      match l.l_phase with
      | Some (Ph_prop fl) when fl.fl_instance = instance ->
        broadcast t
          (Accept { ballot = l.l_ballot; instance; proposal = fl.fl_proposal })
        @ [ after ~delay:t.cfg.accept_retry_ms (Accept_retry instance) ]
      | _ -> [])
    | _ -> []

  let on_prepare_retry t ~round =
    match t.role with
    | Candidate c when c.c_ballot.round = round ->
      broadcast t (Prepare { ballot = c.c_ballot; commit_point = Plog.commit_point t.log })
      @ [ after ~delay:t.cfg.prepare_retry_ms (Prepare_retry round) ]
    | _ -> []

  let on_exec_done t ~token =
    match Hashtbl.find_opt t.exec_table token with
    | None -> []
    | Some work -> (
      Hashtbl.remove t.exec_table token;
      match t.role with
      | Leader l ->
        (* Writes hold the pipeline slot (Ph_exec) while executing. *)
        (match work with Exec_batch _ -> l.l_phase <- None | _ -> ());
        finish_execution t l work
      | _ -> [])

  (* ------------------------------------------------------------------ *)
  (* Entry points                                                        *)

  let bootstrap t =
    [ after ~delay:0.0 Hb_tick; after ~delay:(t.cfg.suspicion_ms /. 2.0) Suspicion_tick ]

  (* The inline-E path passes nan as [now]; substitute the driver time so
     services always observe a real clock. *)
  let step t ~now input =
    t.now <- now;
    match input with
    | Timer timer -> (
      match timer with
      | Hb_tick -> on_hb_tick t ~now
      | Suspicion_tick -> on_suspicion_tick t ~now
      | Stability_check token -> on_stability_check t ~now ~token
      | Accept_retry instance -> on_accept_retry t ~instance
      | Prepare_retry round -> on_prepare_retry t ~round
      | Exec_done token -> on_exec_done t ~token
      | Client_retry _ -> []
      | Sp_round_timeout _ -> [] (* semi-passive engine only *))
    | Receive { src; msg } -> (
      if not (node_is_client src) then heard t ~from:src ~now;
      match msg with
      | Heartbeat { round_seen; commit_point; promised = their_promise; sent_at; lease_anchor }
        ->
        observe_round t round_seen;
        (* Adopting a higher promise unilaterally is always safe (it only
           makes this replica more conservative) and spreads knowledge of
           the current leadership, so a recovered old leader defers to
           the incumbent instead of deposing it (§3.6 stability). *)
        let demoted = adopt_promise t their_promise in
        (* Lease grant (follower side): a heartbeat from the replica we
           are promised to starts or renews a grant. The enforcement
           window only ever extends; the anchor tracks the newest
           [sent_at] so reordered heartbeats cannot roll it back. *)
        if
          t.cfg.lease_ms > 0.0
          && (not (is_leader t))
          && Ballot.equal t.promised their_promise
          && their_promise.Ballot.holder = src
        then begin
          if
            t.lease_holder <> src
            || Float.is_nan t.lease_anchor
            || sent_at > t.lease_anchor
          then t.lease_anchor <- sent_at;
          t.lease_holder <- src;
          t.lease_until <- Float.max t.lease_until (now +. t.cfg.lease_ms)
        end;
        (* Grant renewal (leader side): followers echo their grant anchor
           on their own heartbeats. Only count an echo from a follower
           promised to this exact leadership. *)
        (match t.role with
        | Leader l when Ballot.equal their_promise l.l_ballot ->
          record_grant t l ~src ~anchor:lease_anchor
        | _ -> ());
        (* A heartbeat from the replica we promised to announces a commit
           point ahead of ours: we missed Commit messages — catch up. *)
        let catchup =
          if
            (not (is_leader t))
            && src = t.promised.holder
            && commit_point > Plog.commit_point t.log
          then [ send ~dst:src (Catchup_req { from_instance = Plog.commit_point t.log + 1 }) ]
          else []
        in
        (* [last_heard] and [leader_view] are now up to date. *)
        demoted @ catchup @ consider_candidacy t ~now
      | Client_req r -> (
        match t.role with
        | Leader l -> leader_handle_client t l r
        | Follower | Candidate _ -> follower_handle_client t r)
      | Prepare { ballot; commit_point } ->
        handle_prepare t ~now ~src ~ballot ~their_cp:commit_point
      | Prepare_ack { ballot; snapshot; accepted; _ } ->
        handle_prepare_ack t ~src ~ballot ~snapshot ~accepted
      | Accept { ballot; instance; proposal } ->
        handle_accept t ~now ~src ~ballot ~instance ~proposal
      | Accept_ack { ballot; instance } -> handle_accept_ack t ~src ~ballot ~instance
      | Commit { ballot; instance } -> handle_commit t ~now ~src ~ballot ~instance
      | Read_confirm { ballot; req; lease_anchor } ->
        handle_read_confirm t ~src ~ballot ~req ~lease_anchor
      | Reject { promised } -> handle_reject t ~promised
      | Catchup_req _ ->
        if is_leader t then
          [ send ~dst:src (Catchup { snapshot = Snapshot.encode (current_snapshot t) }) ]
        else []
      | Catchup { snapshot } ->
        install_snapshot t (Snapshot.decode snapshot);
        []
      | Reply_msg _ -> []
      | Sp_estimate _ | Sp_propose _ | Sp_ack _ | Sp_decide _ ->
        (* Semi-passive wire traffic is handled by Semi_passive.Make. *)
        [])

  (* The step's store writes come first, in the order it made them, so a
     driver makes them durable before anything that depends on them
     leaves. *)
  let with_persists t actions =
    let ps = t.persisted in
    t.persisted <- [];
    List.fold_left (fun acc p -> Persist p :: acc) actions ps

  let handle t ~now input = with_persists t (step t ~now input)

  let restart t ~now =
    t.now <- now;
    (* A crashed process sends nothing; drop the demotion replies. *)
    ignore (step_down t : action list);
    Hashtbl.reset t.pre_confirms;
    (* Lease blackout: the grant (if any) died with the process, so sit
       out one full lease — refusing every candidate (holder -1 matches
       nobody) — before promising again. Without this a recovered
       follower could promise a usurper while the old leader is still
       lawfully serving leased reads against the forgotten grant. *)
    if t.cfg.lease_ms > 0.0 then begin
      t.lease_holder <- -1;
      t.lease_anchor <- Float.nan;
      t.lease_until <- now +. t.cfg.lease_ms
    end;
    t.candidate_since <- None;
    Array.fill t.last_heard 0 t.cfg.n neg_infinity;
    heard t ~from:t.rid ~now;
    (* [load]'s re-persist of its snapshot comes out here. *)
    with_persists t (bootstrap t)

  let load t (p : Storage.persisted) =
    t.promised <- p.promised;
    if p.promised.round > t.round_seen then t.round_seen <- p.promised.round;
    (match p.snapshot with
    | Some s -> install_snapshot t (Snapshot.decode s)
    | None -> ());
    List.iter
      (fun (e : recovery_entry) ->
        if e.instance > Plog.commit_point t.log then
          ignore (Plog.accept t.log ~instance:e.instance ~ballot:e.ballot e.proposal))
      p.entries;
    (* Entries between the snapshot's commit point and the persisted one
       are committed: mark them, then replay them through the commit path
       to restore the state and the tables. *)
    let from = Plog.commit_point t.log + 1 in
    let rec mark i =
      if i <= p.commit_point && Plog.commit t.log ~instance:i then mark (i + 1)
    in
    mark from;
    apply_committed t ~mode:Replay ~from
end
