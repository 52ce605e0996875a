open Types
module Rng = Grid_util.Rng
module Bitset = Grid_util.Bitset
module Ids = Grid_util.Ids

module Make (S : Service_intf.S) = struct
  (* Per-instance ◇S consensus state. Instances are independent for
     consensus purposes; state application happens strictly in instance
     order. *)
  type inst = {
    mutable round : int;
    mutable estimate : (proposal * int) option;  (* locked value, round *)
    mutable proposed_round : int;  (* highest round this replica proposed in; -1 if none *)
    mutable acks : Bitset.t;
    (* round -> estimates gathered when this replica coordinates it *)
    estimates : (int, (int, (proposal * int) option) Hashtbl.t) Hashtbl.t;
    mutable timeout_round : int;  (* highest round with an armed timeout *)
  }

  type t = {
    cfg : Config.t;
    rid : int;
    rng : Rng.t;
    mutable now : float;
    mutable app_state : S.state;
    pending : request Queue.t;  (* arrival order, undecided *)
    pending_ids : (Ids.Request_id.t, unit) Hashtbl.t;
    insts : (int, inst) Hashtbl.t;
    decided : (int, proposal) Hashtbl.t;
    mutable applied : int;  (* contiguous applied prefix *)
    dedup : (int, reply) Hashtbl.t;
    mutable history : (int * request list * string) list;
  }

  let create ~cfg ~id ?seed () =
    let seed = match seed with Some s -> s | None -> 0x5e31 + id in
    {
      cfg;
      rid = id;
      rng = Rng.of_int seed;
      now = 0.0;
      app_state = S.initial ();
      pending = Queue.create ();
      pending_ids = Hashtbl.create 16;
      insts = Hashtbl.create 8;
      decided = Hashtbl.create 16;
      applied = 0;
      dedup = Hashtbl.create 16;
      history = [];
    }

  let decided_count t = t.applied
  let state t = t.app_state
  let committed_updates t = List.rev t.history
  let quorum t = Config.quorum t.cfg
  let others t = List.filter (fun r -> r <> t.rid) (Config.replica_ids t.cfg)
  let coordinator t round = round mod t.cfg.n
  let broadcast t msg = List.map (fun dst -> send ~dst msg) (others t)

  let inst_of t i =
    match Hashtbl.find_opt t.insts i with
    | Some s -> s
    | None ->
      let s =
        {
          round = 0;
          estimate = None;
          proposed_round = -1;
          acks = Bitset.create t.cfg.n;
          estimates = Hashtbl.create 4;
          timeout_round = -1;
        }
      in
      Hashtbl.replace t.insts i s;
      s

  let timeout_delay t round = t.cfg.suspicion_ms *. Float.of_int (1 + round)

  let arm_timeout t i (s : inst) round =
    if s.timeout_round < round then begin
      s.timeout_round <- round;
      [ after ~delay:(timeout_delay t round) (Sp_round_timeout (i, round)) ]
    end
    else []

  let adopt = Committed.adopt (module S : Service_intf.S with type state = S.state)

  (* Apply the contiguous decided prefix. *)
  let apply_ready t =
    let rec go () =
      match Hashtbl.find_opt t.decided (t.applied + 1) with
      | None -> ()
      | Some p ->
        t.applied <- t.applied + 1;
        t.app_state <- adopt t.app_state p;
        List.iter (Committed.dedup_update t.dedup) p.replies;
        (* Decided requests leave the queue lazily: [next_request] skips
           those no longer in [pending_ids]. *)
        List.iter (fun (r : request) -> Hashtbl.remove t.pending_ids r.id) p.requests;
        if t.cfg.record_history then
          t.history <- (t.applied, p.requests, S.encode_state t.app_state) :: t.history;
        Hashtbl.remove t.insts t.applied;
        go ()
    in
    go ()

  (* The oldest pending request that has not been decided meanwhile. *)
  let rec next_request t =
    match Queue.peek_opt t.pending with
    | None -> None
    | Some r ->
      if Hashtbl.mem t.pending_ids r.id then Some r
      else begin
        ignore (Queue.pop t.pending);
        next_request t
      end

  let decide t i (p : proposal) ~am_decider =
    if not (Hashtbl.mem t.decided i) then begin
      Hashtbl.replace t.decided i p;
      apply_ready t;
      let replies =
        if am_decider then
          List.map (fun (r : reply) -> send ~dst:(client_node r.req.client) (Reply_msg r)) p.replies
        else []
      in
      replies
    end
    else []

  (* Coordinator proposing in round [round] of instance [i]. [locked] is
     the highest-round estimate among a majority (None in round 0). Lazy
     execution: only here does a request actually run. *)
  let propose t i (s : inst) ~round ~locked =
    if s.proposed_round >= round || Hashtbl.mem t.decided i then []
    else begin
      let proposal =
        match locked with
        | Some (p, _) -> Some p
        | None -> (
          match next_request t with
          | None -> None
          | Some r ->
            let op = S.decode_op r.payload in
            let outcome = S.apply ~rng:t.rng ~now:t.now t.app_state op in
            let reply =
              { req = r.id; status = Ok; payload = S.encode_result outcome.result }
            in
            Some
              {
                requests = [ r ];
                update = Full (S.encode_state outcome.state);
                replies = [ reply ];
              })
      in
      match proposal with
      | None -> []
      | Some proposal ->
        s.proposed_round <- round;
        s.round <- Stdlib.max s.round round;
        s.estimate <- Some (proposal, round);
        s.acks <- Bitset.create t.cfg.n;
        Bitset.set s.acks t.rid;
        let acts =
          broadcast t (Sp_propose { instance = i; round; proposal })
          @ arm_timeout t i s round
        in
        if Bitset.cardinal s.acks >= quorum t then
          acts @ decide t i proposal ~am_decider:true
          @ broadcast t (Sp_decide { instance = i; proposal })
        else acts
    end

  (* Try to start the next undecided instance if we coordinate round 0. *)
  let try_initiate t =
    let i = t.applied + 1 in
    if coordinator t 0 = t.rid && not (Hashtbl.mem t.decided i) then begin
      let s = inst_of t i in
      if s.proposed_round < 0 then propose t i s ~round:0 ~locked:None else []
    end
    else []

  (* Followers arm the round-0 suspicion timeout once they know there is
     something to decide. *)
  let arm_if_pending t =
    let i = t.applied + 1 in
    if next_request t <> None && not (Hashtbl.mem t.decided i) then
      arm_timeout t i (inst_of t i) (inst_of t i).round
    else []

  (* A request whose op does not decode is dropped on arrival: executing
     it would raise out of [propose]. *)
  let handle_client t (r : request) =
    match (S.decode_op r.payload, Committed.dedup_lookup t.dedup r) with
    | exception _ ->
      [ Note (Format.asprintf "dropped %a: op does not decode" Ids.Request_id.pp r.id) ]
    | _, `Resend prev ->
      (* Decided already: any replica may re-answer a duplicate. *)
      [ send ~dst:(client_node r.id.client) (Reply_msg prev) ]
    | _, `Stale -> []
    | _, `Fresh ->
      if Hashtbl.mem t.pending_ids r.id then []
      else begin
        Hashtbl.replace t.pending_ids r.id ();
        Queue.add r t.pending;
        try_initiate t @ arm_if_pending t
      end

  let handle_propose t ~src ~i ~round ~proposal =
    match Hashtbl.find_opt t.decided i with
    | Some p -> [ send ~dst:src (Sp_decide { instance = i; proposal = p }) ]
    | None ->
      let s = inst_of t i in
      if round >= s.round then begin
        (* Adopt: lock the value at this round and ack. Never regress. *)
        s.round <- round;
        s.estimate <- Some (proposal, round);
        send ~dst:src (Sp_ack { instance = i; round })
        :: arm_timeout t i s round
      end
      else []

  let handle_ack t ~src ~i ~round =
    match Hashtbl.find_opt t.decided i with
    | Some _ -> []
    | None ->
      let s = inst_of t i in
      if s.proposed_round = round then begin
        Bitset.set s.acks src;
        if Bitset.cardinal s.acks >= quorum t then begin
          match s.estimate with
          | Some (proposal, _) ->
            decide t i proposal ~am_decider:true
            @ broadcast t (Sp_decide { instance = i; proposal })
            @ try_initiate t
            @ arm_if_pending t
          | None -> []
        end
        else []
      end
      else []

  let handle_estimate t ~src ~i ~round ~estimate =
    match Hashtbl.find_opt t.decided i with
    | Some p -> [ send ~dst:src (Sp_decide { instance = i; proposal = p }) ]
    | None ->
      if coordinator t round <> t.rid then []
      else begin
        let s = inst_of t i in
        let table =
          match Hashtbl.find_opt s.estimates round with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 4 in
            Hashtbl.replace s.estimates round tbl;
            tbl
        in
        Hashtbl.replace table src estimate;
        if Hashtbl.length table >= quorum t && s.proposed_round < round then begin
          (* Choose the estimate locked at the highest round, if any. *)
          let locked =
            Hashtbl.fold
              (fun _ est best ->
                match (est, best) with
                | Some (p, r), Some (_, br) when r > br -> Some (p, r)
                | Some (p, r), None -> Some (p, r)
                | _ -> best)
              table None
          in
          propose t i s ~round ~locked
        end
        else []
      end

  let handle_timeout t ~i ~round =
    match Hashtbl.find_opt t.decided i with
    | Some _ -> []
    | None ->
      let s = inst_of t i in
      if s.round <> round || next_request t = None && s.estimate = None then
        (* Stale timeout, or nothing to decide yet. *)
        arm_if_pending t
      else begin
        (* Suspect the coordinator of [round]: move to round+1 and report
           our estimate to its coordinator. *)
        let next = round + 1 in
        s.round <- next;
        let c = coordinator t next in
        let acts =
          if c = t.rid then
            (* Deliver our own estimate locally. *)
            handle_estimate t ~src:t.rid ~i ~round:next ~estimate:s.estimate
          else [ send ~dst:c (Sp_estimate { instance = i; round = next; estimate = s.estimate }) ]
        in
        acts @ arm_timeout t i s next
      end

  let handle_decide t ~i ~proposal =
    let acts = decide t i proposal ~am_decider:false in
    acts @ try_initiate t @ arm_if_pending t

  let bootstrap _t = []

  let handle t ~now input =
    t.now <- now;
    match input with
    | Timer (Sp_round_timeout (i, round)) -> handle_timeout t ~i ~round
    | Timer _ -> []
    | Receive { src; msg } -> (
      match msg with
      | Client_req r -> handle_client t r
      | Sp_propose { instance; round; proposal } ->
        handle_propose t ~src ~i:instance ~round ~proposal
      | Sp_ack { instance; round } -> handle_ack t ~src ~i:instance ~round
      | Sp_estimate { instance; round; estimate } ->
        handle_estimate t ~src ~i:instance ~round ~estimate
      | Sp_decide { instance; proposal } -> handle_decide t ~i:instance ~proposal
      | _ -> [])
end
