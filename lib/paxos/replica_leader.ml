(* The leader role of {!Replica}: the batch executor and its gate, the
   one-instance-at-a-time accept pipeline, X-Paxos read completion,
   admission control and client dispatch. It works over the shared
   state record of [Replica_state.Make (S)]; the election path enters
   it through [become_leader] and the handlers of its own messages. *)

open Types
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
  open Replica_state.Make (S)

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
        match witness with
        | Some w -> fst (S.replay st (S.decode_op r.payload) ~witness:w)
        | None -> (apply_op t st r).state)
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
    let fp = op_footprint r in
    match gate t b ~frozen:(committed_frozen t) fp with
    | Redirect -> reply_now l b r (wrong_epoch t)
    | Park | Conflict ->
      (* Writes never conflict: they wait, keeping their [l_queued_ids]
         slot so retransmissions stay deduplicated, and re-queue when the
         migration or the prepared branch decides. *)
      park l (W_write r)
    | Execute ->
      let outcome = apply_op t b.b_state r in
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
  (* Leader: the accept pipeline                                         *)

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
        if r.status = Ok then
          Watchdog.write_acked t.wd ~client:(Ids.Client_id.to_int r.req.client) ~seq:r.req.seq)
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

  (* Batch queued work items — writes and transaction commits, up to
     [max_batch] — into one instance: the decided value is
     ⟨batch, state-after-batch⟩, which preserves the no-gap rule while
     letting throughput scale with the number of closed-loop clients
     (cf. Figures 5–6 and 9). Requests that committed while queued (e.g.
     via a re-proposal) are filtered here and answered from the dedup
     cache. *)
  and pump_queue t (l : leadership) =
    let rec take n =
      if n <= 0 then []
      else match Queue.take_opt l.l_queue with Some w -> w :: take (n - 1) | None -> []
    in
    match take (Stdlib.max 1 t.cfg.max_batch) with
    | [] -> []
    | batch ->
      let stale_replies = ref [] in
      let fresh =
        List.filter
          (fun w ->
            let r =
              match w with W_write r | W_txn_commit r | W_txn_prepare r | W_reshard r -> r
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
          batch
      in
      let resend = reply_actions !stale_replies in
      if fresh = [] then resend @ pump t else resend @ begin_execution t (Exec_batch fresh)

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
      begin_execution t (Exec_read r)
    end

  (* Defer work behind the execution cost E, or run it inline if E = 0. *)
  and begin_execution t work =
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
        let outcome = apply_op t t.app_state r in
        (* Reads must not change state; the post-state is discarded. *)
        pr.pr_exec_done <- true;
        pr.pr_result <- S.encode_result outcome.result;
        pr.pr_exec_point <- Plog.commit_point t.log;
        span_request t ~instance:(-1) ~detail:"" Span.Apply r;
        check_read_ready t l pr)
    | Exec_original r ->
      (* Unreplicated baseline: execute and answer with no coordination. *)
      let outcome = apply_op t t.app_state r in
      t.app_state <- outcome.state;
      span_request t ~instance:(-1) ~detail:"" Span.Apply r;
      reply_to ~payload:(S.encode_result outcome.result) r Ok
    | Exec_txn_op r -> (
      match r.rtype with
      | Txn_op tid ->
        let key = txn_key r tid in
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
        (* A duplicated op gets its recorded reply again and is not
           applied again: the prepare's op count is what tells a branch
           that lost ops to a leader switch from a whole one, so a second
           copy must not make up for a lost op. *)
        (match
           List.find_opt (fun (rep : reply) -> Ids.Request_id.equal rep.req r.id) txn.tx_replies
         with
        | Some reply -> reply_actions [ reply ]
        | None ->
          let outcome = apply_op t txn.tx_state r in
          txn.tx_state <- outcome.state;
          txn.tx_ops <- (r, outcome.witness) :: txn.tx_ops;
          txn.tx_footprint <- Footprint.union txn.tx_footprint (op_footprint r);
          let reply = { req = r.id; status = Ok; payload = S.encode_result outcome.result } in
          txn.tx_replies <- reply :: txn.tx_replies;
          span_request t ~instance:(-1) ~detail:"" Span.Apply r;
          reply_actions [ reply ])
      | _ -> [])

  and check_read_ready t (l : leadership) pr =
    if not pr.pr_exec_done then []
    else begin
      let r = pr.pr_request in
      let leased = pr.pr_leased && holds_lease t ~now:t.now in
      if leased then begin
        (* Lease fast path: execution alone completes the read — no
           confirm round, zero protocol messages. *)
        span_request t ~instance:(-1) ~detail:"" Span.Lease_local r;
        if Watchdog.enabled t.wd then
          Watchdog.lease_claimed t.wd ~now:t.now ~until:(lease_horizon t l)
            ~slack_ms:(2.0 *. t.cfg.clock_skew_bound_ms)
      end
      else
        (* The lease lapsed (or was never held): fall back to the confirm
           protocol. Confirms have been flowing regardless — clients
           broadcast reads to every replica — so the quorum may already
           be in hand. *)
        pr.pr_leased <- false;
      if leased || Bitset.cardinal pr.pr_confirms >= quorum t then begin
        Hashtbl.remove l.l_reads r.id;
        Watchdog.read_replied t.wd ~client:(Ids.Client_id.to_int r.id.client) ~seq:r.id.seq
          ~watermark:pr.pr_watermark ~exec_point:pr.pr_exec_point;
        reply_to ~payload:pr.pr_result r Ok
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
    span_request t ~instance:(-1) ~detail:"shed" Span.Leader_receive r;
    reply_to r (Overloaded { retry_after_ms = retry_after_ms t backlog })

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
    span_request t ~instance:(-1) ~detail Span.Leader_receive r;
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
      reply_to r (wrong_epoch t)
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
        span_request t ~instance:(-1) ~detail:"read_deferred" Span.Leader_receive r;
        l.l_deferred_reads <- r :: l.l_deferred_reads;
        []
      end
      else admit_read t l r
    | Original -> begin_execution t (Exec_original r)
    | Write -> enqueue t l r (W_write r)
    | Txn_commit _ -> enqueue t l r (W_txn_commit r)
    | Txn_prepare _ -> enqueue t l r (W_txn_prepare r)
    | Reshard_freeze _ | Reshard_install _ | Reshard_commit _ | Reshard_abort _ ->
      enqueue t l r (W_reshard r)
    | Txn_op _ -> begin_execution t (Exec_txn_op r)
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
          reply_to r Ok
        | Some false -> reply_to r Txn_aborted
        | None ->
          (* Leader-local branch (or nothing at all): discard instantly,
             no consensus needed — the branch never escaped this leader. *)
          Hashtbl.remove l.l_txns (txn_key r tid);
          reply_to r Txn_aborted)


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
end
