(* The sharded runtime: k independent replica groups over one shared
   simulation, with a router that sends each client request to the group
   owning its footprint keys.

   Each group runs the full single-group protocol stack unchanged
   (basic / X-Paxos / T-Paxos); groups never exchange messages. The
   router rejects cross-shard operations with a typed error — the
   single-shard restriction DESIGN.md §11 documents as a deviation. *)

module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Span = Grid_obs.Span
module Rng = Grid_util.Rng
module Runtime = Grid_runtime.Runtime
module Scenario = Grid_runtime.Scenario
open Grid_paxos.Types

module Make (S : Grid_paxos.Service_intf.S) = struct
  module Group = Runtime.Make (S)

  (* A logical client holds one protocol engine per group (each with its
     own globally unique client id), but the closed-loop contract is per
     logical client: one outstanding request across all groups. *)
  type client = {
    id : int;
    handles : Grid_paxos.Client.t array;  (* indexed by shard *)
    txns : (int, int * int) Hashtbl.t;
        (* open transaction -> (pinned shard, map epoch at pin time):
           the epoch distinguishes a genuine cross-shard op (error)
           from a map that moved under the pin (route to the pin; the
           group answers [Wrong_epoch] if the keys left it) *)
    mutable lseq : int;
        (* logical submissions so far: the deterministic trace-id source
           (id * 1e6 + lseq), advanced only on successful submits *)
    mutable base_on_reply : (reply -> unit) option;
        (* the caller's reply callback, so a coordinator [round] can
           borrow the per-shard handles and hand them back afterwards *)
    mutable last_item : S.op Runtime.item option;
        (* what the outstanding request was, so a [Wrong_epoch] redirect
           can transparently resubmit it under the adopted map *)
    mutable redirect_budget : int;
        (* transparent resubmits left for the outstanding request;
           exhausted budgets surface the [Wrong_epoch] to the caller *)
    mutable redirects : int;  (* total transparent redirects, for stats *)
    mutable wrapped_cb : reply -> unit;
        (* the redirect-intercepting callback installed on every
           per-shard handle; [set_on_reply] and the end of a [round]
           reinstall it (never the raw caller callback) *)
  }

  type t = {
    eng : Engine.t;
    net : msg Network.t;
    mutable part : Partition.t;
        (* the router's current partition map; [split_shard]/
           [merge_shards] and adopted [Wrong_epoch] redirects advance it *)
    route : S.op -> string list;
    groups : Group.t array;
    scenario : Scenario.t;
    obs : Span.Recorder.t;
    watchdog : Grid_obs.Watchdog.t;
    sid_route : string;  (* precomputed router span id *)
    mutable next_client_id : int;
    mutable next_cross_tid : int;
        (* cross-shard transaction ids: a namespace disjoint from every
           per-client single-shard tid, monotone so participant
           tombstone pruning stays safe *)
    mutable reshard_floor : int;
        (* lowest epoch the next reshard attempt may use: an ABORT
           decision burns its epoch at the source (the tombstone refuses
           later instances of it) without advancing the map, so retries
           must skip past every epoch already attempted *)
  }

  let cross_tid_base = 1_000_000_000

  let create ?(seed = 42) ?(trace = false) ?trace_capacity ?spec
      ?(route = S.footprint) ?watchdog ~cfg ~scenario:(sc : Scenario.t) ~shards () =
    let root = Rng.of_int seed in
    let eng = Engine.create () in
    let net = Network.create eng (Rng.split root) in
    let obs = Span.Recorder.create ?capacity:trace_capacity ~enabled:trace () in
    let part = Partition.create ?spec ~shards () in
    (* One watchdog sink for every group: the lease mutual-exclusion view
       is keyed by shard prefix, so sharing is safe and keeps one violation
       count for the whole sharded service. *)
    let watchdog =
      match watchdog with Some w -> w | None -> Grid_obs.Watchdog.create ()
    in
    (* Group g occupies global nodes [g*n .. g*n + n - 1]; its spans are
       tagged "s<g>/..." and its metrics live in its own registry. *)
    let groups =
      Array.init shards (fun g ->
          Group.create ~seed:(seed + ((g + 1) * 7919)) ~attach:(eng, net) ~obs
            ~node_base:(g * sc.n) ~shard:g ~watchdog ~cfg ~scenario:sc ())
    in
    {
      eng;
      net;
      part;
      route;
      groups;
      scenario = sc;
      obs;
      watchdog;
      sid_route = Span.span_id ~actor:"rtr" Span.Route;
      next_client_id = 0;
      next_cross_tid = cross_tid_base;
      reshard_floor = 1;
    }

  let engine t = t.eng
  let network t = t.net
  let obs t = t.obs
  let watchdog t = t.watchdog
  let partition t = t.part
  let shards t = Array.length t.groups
  let group t g = t.groups.(g)
  let metrics t ~shard = Group.metrics t.groups.(shard)
  let now t = Engine.now t.eng

  (* ---------------------------------------------------------------- *)
  (* Clients and routing *)

  let pinned_txns cl = Hashtbl.length cl.txns
  let redirect_count cl = cl.redirects

  (* Resolve an item to its owning shard. Empty footprints route to
     shard 0 (a documented deviation: the op conflicts with nothing, so
     any single group may serve it, but a "global" read like Kv.Size
     must advertise ["*"] to be rejected instead). Transaction items pin
     their tid to the first op's shard; commit and abort follow the pin. *)
  let route_item t cl (it : S.op Runtime.item) : (int, Partition.error) result =
    let place op = Partition.place t.part (t.route op) in
    match it with
    | Runtime.Do op | Runtime.Unreplicated op -> (
      match place op with
      | Ok (Partition.Single s) -> Ok s
      | Ok Partition.Any -> Ok 0
      | Error e -> Error e)
    | Runtime.In_txn (tid, op) -> (
      match Hashtbl.find_opt cl.txns tid with
      | Some (s', pinned_epoch) when pinned_epoch <> Partition.epoch t.part ->
        (* The map moved under an open transaction. The branch must not
           straddle epochs, so every further op follows the pin: the
           pinned group completes the transaction against the old epoch
           if it still owns the keys, or answers the commit with a typed
           [Wrong_epoch] if they moved away — never half under each
           map. *)
        Ok s'
      | pin -> (
        match place op with
        | Ok (Partition.Single s) -> (
          match pin with
          | None ->
            Hashtbl.replace cl.txns tid (s, Partition.epoch t.part);
            Ok s
          | Some (s', _) when s' = s -> Ok s
          | Some (s', _) ->
            Error
              (`Cross_shard
                 ((Printf.sprintf "txn/%d" tid, s')
                 :: List.map
                      (fun k -> (k, Partition.owner_of_key t.part k))
                      (t.route op))))
        | Ok Partition.Any -> (
          match pin with
          | Some (s, _) -> Ok s
          | None ->
            Hashtbl.replace cl.txns tid (0, Partition.epoch t.part);
            Ok 0)
        | Error e -> Error e))
    | Runtime.Commit_txn { tid; _ } | Runtime.Abort_txn tid ->
      (* The pin is read here but only released after a successful
         submit (see [try_submit_item]): releasing on a `Busy submit
         used to unpin the transaction, so the retried commit routed to
         shard 0 instead of the pinned shard, and pins for transactions
         whose commit never got in leaked forever. *)
      Ok (match Hashtbl.find_opt cl.txns tid with Some (s, _) -> s | None -> 0)

  type submit_error = [ Partition.error | `Busy ]

  let pp_submit_error ppf (e : submit_error) =
    match e with
    | #Partition.error as e -> Partition.pp_error ppf e
    | `Busy -> Format.pp_print_string ppf "client has a request outstanding"

  (* [fresh] distinguishes a caller submission from a transparent
     redirect resubmission: only the former re-arms the redirect budget
     (a redirect chain must converge, not re-fund itself). *)
  let submit_routed ~fresh t cl it : (int, submit_error) result =
    match route_item t cl it with
    | Error e -> Error (e :> submit_error)
    | Ok s ->
      (* When recording, every submission gets a deterministic trace id
         derived from (logical client, submission count); the per-shard
         protocol client parents its [Client_send] under the router's
         [Route] span, so the whole cross-shard request stitches into one
         tree. Untraced runs pass no context and pay one branch. *)
      (* +1 keeps the id nonzero: tid 0 is the untraced sentinel, and
         logical client 0's first submission would otherwise produce it. *)
      let trace =
        if Span.Recorder.enabled t.obs then
          Some ((cl.id * 1_000_000) + cl.lseq + 1, t.sid_route)
        else None
      in
      (match Group.submit_item t.groups.(s) cl.handles.(s) ?trace it with
      | `Submitted ->
        cl.last_item <- Some it;
        if fresh then cl.redirect_budget <- 8;
        (* Commit/abort are in the pipe: the pin has served its routing
           purpose. The client engine retransmits the request itself
           (including across leader switches, where the commit aborts),
           so the pin is never consulted again for this tid. *)
        (match it with
        | Runtime.Commit_txn { tid; _ } | Runtime.Abort_txn tid ->
          Hashtbl.remove cl.txns tid
        | _ -> ());
        (match trace with
        | Some (tid, _) ->
          cl.lseq <- cl.lseq + 1;
          (match Grid_paxos.Client.outstanding cl.handles.(s) with
          | Some r ->
            (* Tag the routing epoch — migration traffic shows up in
               [tracestat --tree] as the epoch flips, and transparent
               Wrong_epoch resubmissions are marked explicitly. *)
            Span.Recorder.span ~tid t.obs ~time:(now t) ~actor:"rtr" ~req:r.id
              ~instance:s
              ~detail:
                (Printf.sprintf "%sepoch=%d"
                   (if fresh then "" else "redirect ")
                   (Partition.epoch t.part))
              Span.Route
          | None -> ())
        | None -> ());
        Ok s
      | `Busy -> Error `Busy)

  let try_submit_item t cl it = submit_routed ~fresh:true t cl it

  let submit_item t cl it =
    match try_submit_item t cl it with
    | Ok s -> s
    | Error e ->
      invalid_arg (Format.asprintf "Multi.submit_item: %a" pp_submit_error e)

  let try_submit_op t cl op = try_submit_item t cl (Runtime.Do op)
  let submit_op t cl op = submit_item t cl (Runtime.Do op)

  (* ---------------------------------------------------------------- *)
  (* The redirect wrapper: every per-shard handle reports replies here,
     not to the caller. A [Wrong_epoch] reply carries the responding
     group's committed partition map; the wrapper adopts it if newer and
     — for plain ops, within budget — resubmits the request under the
     new map so the caller never sees the migration. Transactions are
     not replayed (their branch executed against the old epoch and is
     gone); the typed status surfaces so the caller can retry the whole
     transaction. *)

  let deliver cl (reply : reply) =
    match cl.base_on_reply with Some f -> f reply | None -> ()

  let handle_reply t cl (reply : reply) =
    match reply.status with
    | Wrong_epoch { epoch = _; map } -> (
      (match Partition.decode map with
      | m ->
        if Partition.epoch m > Partition.epoch t.part then begin
          t.part <- m;
          if Partition.epoch m >= t.reshard_floor then
            t.reshard_floor <- Partition.epoch m + 1
        end
      | exception _ -> ());
      match cl.last_item with
      | Some ((Runtime.Do _ | Runtime.Unreplicated _) as it)
        when cl.redirect_budget > 0 -> (
        cl.redirect_budget <- cl.redirect_budget - 1;
        cl.redirects <- cl.redirects + 1;
        match submit_routed ~fresh:false t cl it with
        | Ok _ -> ()
        | Error _ -> deliver cl reply)
      | _ ->
        (* Transaction item, exhausted budget, or nothing recorded:
           surface the redirect. Any pin this tid held is already gone
           (removed when the commit/abort entered the pipe). *)
        deliver cl reply)
    | _ -> deliver cl reply

  let add_client t ~id ?machine_share ?on_reply () =
    if id >= t.next_client_id then t.next_client_id <- id + 1;
    let k = Array.length t.groups in
    (* The wrapper closes over the client record it serves, but the
       record holds the handles the wrapper is installed on — tie the
       knot through a ref. *)
    let cl_ref = ref None in
    let wrapped reply =
      match !cl_ref with None -> () | Some cl -> handle_reply t cl reply
    in
    let handles =
      Array.mapi
        (fun g group ->
          Group.add_client group ~id:((id * k) + g) ?machine_share
            ~on_reply:wrapped ())
        t.groups
    in
    let cl =
      {
        id;
        handles;
        txns = Hashtbl.create 4;
        lseq = 0;
        base_on_reply = on_reply;
        last_item = None;
        redirect_budget = 0;
        redirects = 0;
        wrapped_cb = wrapped;
      }
    in
    cl_ref := Some cl;
    cl

  let set_on_reply t cl f =
    cl.base_on_reply <- Some f;
    (* Reinstall the wrapper, not [f]: replies must keep flowing through
       the redirect logic (this also ends any coordinator borrow). *)
    Array.iteri (fun g h -> Group.set_on_reply t.groups.(g) h cl.wrapped_cb) cl.handles

  (* ---------------------------------------------------------------- *)
  (* Cross-shard transactions: 2PC over per-group T-Paxos (DESIGN §16).

     The coordinator is client-side and unreplicated; what makes the
     protocol crash-safe is that both the prepare votes and the final
     decision are consensus instances in each participant group's log.
     The home group (lowest participant shard) is the commit point: the
     transaction is committed iff the COMMIT decision committed there.
     An abandoned coordinator is resolved by [recover_cross_txn], which
     probes the home group with an abort — presumed abort — and learns
     the real outcome from the group's decision tombstones. *)

  type xresult = X_committed | X_aborted | X_conflict

  let pp_xresult ppf = function
    | X_committed -> Format.pp_print_string ppf "committed"
    | X_aborted -> Format.pp_print_string ppf "aborted"
    | X_conflict -> Format.pp_print_string ppf "conflict"

  let alloc_cross_tid t =
    let tid = t.next_cross_tid in
    t.next_cross_tid <- tid + 1;
    tid

  let is_cross_tid tid = tid >= cross_tid_base

  let enc_count n =
    Grid_codec.Wire.encode (fun e -> Grid_codec.Wire.Encoder.uint e n)

  (* Raw per-shard submissions, bypassing the router: the coordinator
     (and the deterministic engine tests) place ops itself. *)
  let submit_txn_op t cl ~shard ~tid op =
    Group.submit t.groups.(shard) cl.handles.(shard) (Txn_op tid)
      ~payload:(S.encode_op op)

  let submit_prepare t cl ~shard ~tid ~ops =
    Group.submit t.groups.(shard) cl.handles.(shard) (Txn_prepare tid)
      ~payload:(enc_count ops)

  let submit_decision t cl ~shard ~tid ~commit =
    if commit then
      Group.submit t.groups.(shard) cl.handles.(shard) (Txn_commit tid)
        ~payload:(enc_count 0)
    else
      Group.submit t.groups.(shard) cl.handles.(shard) (Txn_abort tid) ~payload:""

  (* One coordinator round. Each shard's submits run in order on the
     client's handle for that shard, and a shard stops early at any reply
     that is not [Ok]; shards run side by side. Once every shard is done
     the handles go back to the redirect wrapper (which forwards to
     [base_on_reply], so a [Wrong_epoch] arriving right after is still
     intercepted), and only then does [k] get each shard's last reply, in
     [reqs] order. Every coordinator below is a chain of rounds. *)
  let round t cl ~what reqs k =
    let left = Array.make (Array.length t.groups) [] in
    let last = Array.make (Array.length t.groups) None in
    let pending = ref (List.length reqs) in
    let finish () =
      Array.iteri (fun g h -> Group.set_on_reply t.groups.(g) h cl.wrapped_cb) cl.handles;
      k (List.map (fun (s, _) -> Option.get last.(s)) reqs)
    in
    let next s =
      match left.(s) with
      | [] -> invalid_arg ("Multi.round: a shard with nothing to submit at " ^ what)
      | submit :: more -> (
        left.(s) <- more;
        match submit ~shard:s with
        | `Submitted -> ()
        | `Busy -> invalid_arg ("Multi: coordinator handle busy at " ^ what))
    in
    let on_reply s (reply : reply) =
      last.(s) <- Some reply;
      match left.(s) with
      | _ :: _ when reply.status = Ok -> next s
      | _ ->
        decr pending;
        if !pending = 0 then finish ()
    in
    match reqs with
    | [] -> finish ()
    | _ ->
      Array.iteri (fun g h -> Group.set_on_reply t.groups.(g) h (on_reply g)) cl.handles;
      List.iter
        (fun (s, submits) ->
          left.(s) <- submits;
          next s)
        reqs

  (* The decision: the home group decides first and alone — its log is
     the commit point — then the rest follow it. The 2PC commit sends
     the home a COMMIT and recovery an ABORT probe; either way [Ok] back
     means the COMMIT decision committed there, and anything else that
     an abort decision won (a racing recovery, or no vote ever
     committed). [on_done] fires once every participant acknowledged, so
     locks are released cluster-wide before the caller proceeds. *)
  let decide_home_first t cl ~tid ~home ~rest ~commit ~on_done =
    round t cl ~what:"decision(home)"
      [ (home, [ submit_decision t cl ~tid ~commit ]) ]
      (fun replies ->
        let commit = (List.hd replies).status = Ok in
        round t cl ~what:"decision"
          (List.map (fun s -> (s, [ submit_decision t cl ~tid ~commit ])) rest)
          (fun _ -> on_done (if commit then X_committed else X_aborted)))

  let submit_cross_txn ?tid t cl ~(ops : S.op list) ~on_done =
    if ops = [] then invalid_arg "Multi.submit_cross_txn: empty transaction";
    let tid = match tid with Some tid -> tid | None -> alloc_cross_tid t in
    let k = Array.length t.groups in
    let by_shard = Array.make k [] in
    List.iter
      (fun op ->
        let s =
          match Partition.place t.part (t.route op) with
          | Ok (Partition.Single s) -> s
          | Ok Partition.Any -> 0
          | Error e ->
            invalid_arg
              (Format.asprintf "Multi.submit_cross_txn: unroutable op: %a"
                 Partition.pp_error e)
        in
        by_shard.(s) <- op :: by_shard.(s))
      ops;
    Array.iteri (fun s l -> by_shard.(s) <- List.rev l) by_shard;
    let shards = List.filter (fun s -> by_shard.(s) <> []) (List.init k Fun.id) in
    let home = List.hd shards and rest = List.tl shards in
    let at_each submit = List.map (fun s -> (s, [ submit s ])) shards in
    (* Phase 1 — ops: each participant executes its slice on a
       leader-local branch (ordinary T-Paxos [Txn_op]s, sequential per
       shard, shards progressing concurrently). A branch op only fails
       terminally if its group is wedged; votes would refuse anyway, so
       that shard skips straight to prepare. *)
    round t cl ~what:"txn_op"
      (List.map
         (fun s -> (s, List.map (fun op -> submit_txn_op t cl ~tid op) by_shard.(s)))
         shards)
      (fun _ ->
        (* Phase 2 — prepare: every participant votes by committing (or
           instantly refusing) a [Txn_prepare] instance. *)
        round t cl ~what:"prepare"
          (at_each (fun s -> submit_prepare t cl ~tid ~ops:(List.length by_shard.(s))))
          (fun votes ->
            if List.for_all (fun (v : reply) -> v.status = Ok) votes then
              decide_home_first t cl ~tid ~home ~rest ~commit:true ~on_done
            else
              (* Phase 3b — abort: at least one NO. Conflicts surface as
                 [X_conflict] so callers can distinguish livelock from
                 failure. NO-voters hold no lock, but the abort is still
                 sent everywhere, at once (presumed abort makes ordering
                 irrelevant): on YES-voters it is the decision instance,
                 on NO-voters an instant presumed-abort reply. *)
              let conflict = List.exists (fun (v : reply) -> v.status = Txn_conflict) votes in
              round t cl ~what:"abort"
                (at_each (fun _ -> submit_decision t cl ~tid ~commit:false))
                (fun _ -> on_done (if conflict then X_conflict else X_aborted))));
    tid

  (* Presumed-abort recovery for an abandoned coordinator: the commit
     path's decision with an ABORT probe at the home group. Safe to run
     concurrently with the original coordinator: both race through the
     home group's log, and decision tombstones make the loser's requests
     harmless. Must use a fresh logical client (request ids of the
     abandoned coordinator may still be in flight). *)
  let recover_cross_txn t cl ~tid ~shards ~on_done =
    match List.sort_uniq Int.compare shards with
    | [] -> invalid_arg "Multi.recover_cross_txn: no participants"
    | home :: rest -> decide_home_first t cl ~tid ~home ~rest ~commit:false ~on_done

  (* ---------------------------------------------------------------- *)
  (* Elastic resharding: the migration coordinator (DESIGN.md §17).

     Like the 2PC coordinator above, this is client-side and
     unreplicated; crash safety comes from every protocol step being a
     consensus instance in a participant group's log. The SOURCE group
     is the commit point: the reshard is committed iff the COMMIT
     decision committed in the source's log. The phases are a chain of
     one-shard rounds over one client, strictly in sequence:

       FREEZE(source) → export slice → INSTALL(target) →
       COMMIT(source) → COMMIT(target) → adopt map

     and an abandoned coordinator is resolved by [recover_reshard] —
     presumed abort, mirroring [recover_cross_txn]. *)

  type rresult = R_committed | R_aborted of string

  let pp_rresult ppf = function
    | R_committed -> Format.pp_print_string ppf "committed"
    | R_aborted r -> Format.fprintf ppf "aborted: %s" r

  let submit_reshard t cl ~shard rt ~payload =
    let trace =
      if Span.Recorder.enabled t.obs then
        Some ((cl.id * 1_000_000) + cl.lseq + 1, t.sid_route)
      else None
    in
    match Group.submit t.groups.(shard) cl.handles.(shard) ?trace rt ~payload with
    | `Submitted ->
      (match trace with
      | Some (tid, _) ->
        cl.lseq <- cl.lseq + 1;
        (match Grid_paxos.Client.outstanding cl.handles.(shard) with
        | Some r ->
          Span.Recorder.span ~tid t.obs ~time:(now t) ~actor:"rtr" ~req:r.id
            ~instance:shard
            ~detail:(Format.asprintf "reshard %a" pp_rtype rt)
            Span.Route
        | None -> ())
      | None -> ());
      `Submitted
    | `Busy -> `Busy

  (* Pick the source replica to export the moving slice from: any live
     replica whose committed prefix includes the FREEZE, preferring the
     longest prefix. The frozen range is immutable from the FREEZE
     instance on, so every such replica's slice content is identical and
     definitive — the choice only affects availability, not safety. *)
  let export_slice t ~source ~lo ~hi =
    let g = t.groups.(source) in
    let best = ref None in
    for i = 0 to t.scenario.n - 1 do
      if Group.replica_up g i then begin
        let r = Group.replica g i in
        if Group.R.reshard_phase r = "frozen" then
          match !best with
          | Some (cp, _) when cp >= Group.R.commit_point r -> ()
          | _ -> best := Some (Group.R.commit_point r, r)
      end
    done;
    match !best with
    | None -> None
    | Some (_, r) -> S.export_range (Group.R.state r) ~lo ~hi

  (* One reshard instance as a one-shard round; [k] gets its reply. *)
  let reshard_step t cl ~what ~shard rt ~payload k =
    round t cl ~what [ (shard, [ submit_reshard t cl rt ~payload ]) ] (fun replies ->
        k (List.hd replies))

  let run_plan t cl (p : Reshard.plan) ~on_done =
    let epoch = p.Reshard.pl_epoch in
    let source = p.Reshard.pl_move.Partition.source in
    let target = p.Reshard.pl_move.Partition.target in
    let lo = p.Reshard.pl_move.Partition.mv_lo in
    let hi = p.Reshard.pl_move.Partition.mv_hi in
    (* Roll back an uncommitted migration: the ABORT instance clears the
       freeze at the source (and tombstones the epoch), unblocking held
       writers. Nothing was committed, so this is purely availability. *)
    let abort_at_source reason =
      reshard_step t cl ~what:"reshard-abort" ~shard:source (Reshard_abort epoch)
        ~payload:"" (fun _ -> on_done (R_aborted reason))
    in
    (* The source committed: the reshard IS committed. The target's
       COMMIT activates the imported slice there; its answer cannot change
       the outcome (a duplicate arriving later via [recover_reshard] would
       be answered [Ok] idempotently). *)
    let commit_target () =
      reshard_step t cl ~what:"reshard-commit(target)" ~shard:target
        (Reshard_commit epoch) ~payload:p.Reshard.pl_commit (fun _ ->
          on_done R_committed)
    in
    let commit_source () =
      reshard_step t cl ~what:"reshard-commit(source)" ~shard:source
        (Reshard_commit epoch) ~payload:p.Reshard.pl_commit (fun reply ->
          if reply.status = Ok then begin
            t.part <- p.Reshard.pl_map;
            commit_target ()
          end
          else
            (* A racing [recover_reshard] got its abort in first. *)
            on_done (R_aborted "source refused COMMIT"))
    in
    let install () =
      match export_slice t ~source ~lo ~hi with
      | None -> abort_at_source "no frozen source replica to export from"
      | Some (count, blob) ->
        reshard_step t cl ~what:"reshard-install" ~shard:target
          (Reshard_install epoch) ~payload:(Reshard.install_payload p ~count ~blob)
          (fun reply ->
            if reply.status = Ok then commit_source ()
            else abort_at_source "target refused INSTALL")
    in
    reshard_step t cl ~what:"reshard-freeze" ~shard:source (Reshard_freeze epoch)
      ~payload:p.Reshard.pl_freeze (fun reply ->
        if reply.status = Ok then install ()
        else on_done (R_aborted "source refused FREEZE"))

  let run_outcome t cl outcome ~on_done :
      (unit, Partition.reshard_error) result =
    (* Skip epochs burned by earlier aborted attempts, and burn this
       one up front: whatever happens next, no later attempt may reuse
       its epoch. *)
    let outcome =
      let e =
        match outcome with
        | Reshard.Trivial m -> Partition.epoch m
        | Reshard.Move p -> p.Reshard.pl_epoch
      in
      if e < t.reshard_floor then Reshard.at_epoch outcome ~epoch:t.reshard_floor
      else outcome
    in
    (match outcome with
    | Reshard.Trivial m ->
      t.reshard_floor <- Partition.epoch m + 1;
      (* Epoch advances but no range changes owner: the router adopts
         the map directly, no protocol round. *)
      t.part <- m;
      on_done R_committed
    | Reshard.Move p ->
      t.reshard_floor <- p.Reshard.pl_epoch + 1;
      run_plan t cl p ~on_done);
    Ok ()

  let split_shard t cl ~cut ~target ~on_done =
    match Reshard.split t.part ~cut ~target with
    | Error e -> Error e
    | Ok o -> run_outcome t cl o ~on_done

  let merge_shards t cl ~cut ~on_done =
    match Reshard.merge t.part ~cut with
    | Error e -> Error e
    | Ok o -> run_outcome t cl o ~on_done

  (* Presumed-abort recovery for an abandoned reshard coordinator: send
     ABORT for [epoch] to the source (the commit point). If the source
     already committed the epoch it answers [Ok] with the committed map
     as payload — the reshard committed, so finish the COMMIT at the
     target and adopt the map. Any other answer means the abort won (or
     the migration never started) and the freeze is rolled back. Safe to
     race with the original coordinator: both run through the source's
     log, and the epoch tombstones make the loser's requests
     idempotent. *)
  let recover_reshard t cl ~epoch ~source ~target ~on_done =
    if epoch >= t.reshard_floor then t.reshard_floor <- epoch + 1;
    reshard_step t cl ~what:"reshard-recover-probe" ~shard:source
      (Reshard_abort epoch) ~payload:"" (fun reply ->
        if reply.status = Ok && reply.payload <> "" then begin
          (match Partition.decode reply.payload with
          | m -> if Partition.epoch m > Partition.epoch t.part then t.part <- m
          | exception _ -> ());
          reshard_step t cl ~what:"reshard-recover-commit" ~shard:target
            (Reshard_commit epoch) ~payload:reply.payload (fun _ ->
              on_done R_committed)
        end
        else on_done (R_aborted "abort won"))

  (* ---------------------------------------------------------------- *)
  (* Failure control: per-group delegation. *)

  let crash_replica t ~shard i = Group.crash_replica t.groups.(shard) i
  let recover_replica t ~shard i = Group.recover_replica t.groups.(shard) i
  let replica_up t ~shard i = Group.replica_up t.groups.(shard) i

  (* ---------------------------------------------------------------- *)
  (* Running *)

  let run_until t horizon = Engine.run ~until:horizon t.eng

  let await_leaders t =
    let leaders = Array.map (fun g -> Group.await_leader g) t.groups in
    if Array.for_all Option.is_some leaders then
      Some (Array.map Option.get leaders)
    else None

  (* ---------------------------------------------------------------- *)
  (* Aggregate closed-loop workload: the single-group driver over the
     router, so k disjoint keyspaces drive k depth-one pipelines
     concurrently. Unlike the single-group runtime it does not rescale
     replica CPU costs with the client count: the O(connections)
     server-load model was calibrated for one group serving every client,
     and here each group serves only the clients whose keys it owns. *)

  let run_closed_loop_ops ?max_sim_ms ~clients ~requests_per_client ~gen t =
    if await_leaders t = None then
      failwith "Multi.run_closed_loop_ops: a group failed to elect a leader";
    let machine_share = t.scenario.clients_per_machine clients in
    Group.drive_closed_loop ?max_sim_ms t.eng ~clients ~requests_per_client ~gen
      ~add_client:(fun ~on_reply ->
        add_client t ~id:t.next_client_id ~machine_share ~on_reply ())
      ~submit:(fun cl it ->
        match try_submit_item t cl it with
        | Ok _ -> ()
        | Error e ->
          failwith
            (Format.asprintf "Multi.run_closed_loop_ops: %a" pp_submit_error e))
end
