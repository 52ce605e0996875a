(* The replica engine: the election and follower path over the shared
   state record of [Replica_state], with the leader role in
   [Replica_leader]. This file holds Ω election, the message handlers,
   the timers and the entry points. *)

open Types
module Bitset = Grid_util.Bitset

module Make (S : Service_intf.S) = struct
  include Replica_state.Make (S)
  module Leader = Replica_leader.Make (S)

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
      Leader.become_leader t candidacy
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
      if Bitset.cardinal c.c_acks >= quorum t then Leader.become_leader t c else []
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
        if Bitset.cardinal fl.fl_acks >= quorum t then Leader.do_commit t l fl else []
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
        Leader.check_read_ready t l pr
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
        Leader.finish_execution t l work
      | _ -> [])

  (* ------------------------------------------------------------------ *)
  (* Entry points                                                        *)

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
        | Leader l -> Leader.leader_handle_client t l r
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

  (* The step's store writes, in the order it made them, travel apart
     from what it does, so a driver makes them durable before anything
     that depends on them leaves. *)
  let with_persists t out =
    let persist = List.rev t.persisted in
    t.persisted <- [];
    { persist; out }

  let bootstrap t =
    with_persists t
      [ after ~delay:0.0 Hb_tick; after ~delay:(t.cfg.suspicion_ms /. 2.0) Suspicion_tick ]

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
    bootstrap t

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
