(* Sharded nemesis tiers: seeded schedules over the sharded KV runtime
   against replica crashes and message duplication and reordering. Both
   tiers run one schedule skeleton ({!run_one}); a tier supplies only
   what differs — its RNG salt, partition and horizon, its drivers, its
   crash victims and its own oracles:

   - [Xshard] drives 2PC transactions (DESIGN.md §16), some abandoned
     mid-protocol and resolved later by presumed-abort recovery;
   - [Reshard] splits and merges a live key range (DESIGN.md §17) under
     tagged appends and transactions that straddle the moving range.

   The skeleton owns the cluster, the one-replica-down crash
   bookkeeping, the run loop, the drain, the per-group drain oracle,
   {!Xshard.check}, the watchdog and the trace hook. *)

module M = Grid_shard.Multi.Make (Grid_services.Kv_store)
module Kv = Grid_services.Kv_store
module Partition = Grid_shard.Partition
module Reshard = Grid_shard.Reshard
module Rng = Grid_util.Rng
module Engine = Grid_sim.Engine
module Network = Grid_sim.Network
module Scenario = Grid_runtime.Scenario
module Config = Grid_paxos.Config
module Types = Grid_paxos.Types

let shards = 3
let replicas = 3

(* Footprints for the cross-shard checker; an undecodable payload
   touches every key. *)
let footprint_of payload =
  match Kv.decode_op payload with
  | op -> Grid_paxos.Footprint.of_keys (Kv.footprint op)
  | exception _ -> Grid_paxos.Footprint.all

type tier = Xshard | Reshard

type counts = {
  committed : int;
  aborted : int;
  conflicted : int;
  parked : int;
  recovered : int;
  singles : int;
  splits : int;
  merges : int;
  moves_aborted : int;
  redirects : int;
  acked : int;
  crashes : int;
}

let zero =
  {
    committed = 0;
    aborted = 0;
    conflicted = 0;
    parked = 0;
    recovered = 0;
    singles = 0;
    splits = 0;
    merges = 0;
    moves_aborted = 0;
    redirects = 0;
    acked = 0;
    crashes = 0;
  }

let add a b =
  {
    committed = a.committed + b.committed;
    aborted = a.aborted + b.aborted;
    conflicted = a.conflicted + b.conflicted;
    parked = a.parked + b.parked;
    recovered = a.recovered + b.recovered;
    singles = a.singles + b.singles;
    splits = a.splits + b.splits;
    merges = a.merges + b.merges;
    moves_aborted = a.moves_aborted + b.moves_aborted;
    redirects = a.redirects + b.redirects;
    acked = a.acked + b.acked;
    crashes = a.crashes + b.crashes;
  }

type outcome = { tier : tier; seed : int; counts : counts; violations : string list }

let pp_outcome ppf o =
  let n = o.counts in
  Format.fprintf ppf "seed %d: " o.seed;
  (match o.tier with
  | Xshard ->
    Format.fprintf ppf
      "%d committed, %d aborted, %d conflicted, %d abandoned (%d recovered), %d \
       singles"
      n.committed n.aborted n.conflicted n.parked n.recovered n.singles
  | Reshard ->
    Format.fprintf ppf
      "%d splits, %d merges, %d aborted, %d parked, %d redirects, %d acked, %d/%d \
       xtxns"
      n.splits n.merges n.moves_aborted n.parked n.redirects n.acked n.committed
      (n.committed + n.aborted + n.conflicted));
  Format.fprintf ppf ", %d crashes" n.crashes;
  match o.violations with
  | [] -> ()
  | vs -> Format.fprintf ppf ", %d VIOLATIONS" (List.length vs)

type summary = {
  tier : tier;
  schedules : int;
  totals : counts;
  failures : outcome list;
}

let empty_summary tier = { tier; schedules = 0; totals = zero; failures = [] }

let add_outcome s o =
  {
    s with
    schedules = s.schedules + 1;
    totals = add s.totals o.counts;
    failures = (if o.violations = [] then s.failures else s.failures @ [ o ]);
  }

let pp_summary ppf s =
  let n = s.totals in
  Format.fprintf ppf "%d schedules: " s.schedules;
  (match s.tier with
  | Xshard ->
    Format.fprintf ppf
      "%d committed, %d aborted, %d conflicted, %d abandoned (%d recovered)"
      n.committed n.aborted n.conflicted n.parked n.recovered
  | Reshard ->
    Format.fprintf ppf
      "%d splits, %d merges, %d aborted, %d parked, %d redirects, %d acked writes \
       verified, %d/%d cross txns committed"
      n.splits n.merges n.moves_aborted n.parked n.redirects n.acked n.committed
      (n.committed + n.aborted + n.conflicted));
  Format.fprintf ppf ", %d crashes, %d failing" n.crashes (List.length s.failures)

(* ------------------------------------------------------------------ *)
(* The skeleton's services to a tier's drivers                         *)

type ctx = {
  t : M.t;
  rng : Rng.t;
  mutable violations : string list;  (* newest first *)
  mutable down : (int * int) option;  (* the one replica down or doomed *)
  mutable crashes : int;
}

let violate c fmt =
  Format.kasprintf (fun s -> c.violations <- s :: c.violations) fmt

let after c delay f = ignore (Engine.schedule (M.engine c.t) ~delay f)

(* The crash dice: at most one replica down at a time, so every group
   keeps a quorum. *)
let roll_crash c prob = c.down = None && Rng.float c.rng 1.0 < prob

(* Crash replica [r] of group [g] now, or [at] ms from now, and restart
   it [back] ms from now. *)
let crash c ?at ~back g r =
  c.down <- Some (g, r);
  c.crashes <- c.crashes + 1;
  (match at with
  | None -> M.crash_replica c.t ~shard:g r
  | Some d -> after c d (fun () -> M.crash_replica c.t ~shard:g r));
  after c back (fun () ->
      M.recover_replica c.t ~shard:g r;
      c.down <- None)

(* What a tier's drivers hand back once launched. *)
type drivers = {
  finished : unit -> bool;
  stall : unit -> string;  (* what is still outstanding, for the stall report *)
  check : unit -> unit;  (* the tier's own oracles, after the drain *)
  counts : unit -> counts;  (* everything but [crashes] *)
}

let submit_or_fail t cl op what =
  match M.try_submit_op t cl op with
  | Ok _ -> ()
  | Error e -> Format.kasprintf invalid_arg "Xstress: %s: %a" what M.pp_submit_error e

(* ------------------------------------------------------------------ *)
(* Xshard: 2PC coordinators against single-shard traffic                *)

(* A few keys owned by shard [s], so transactions can be aimed at a
   chosen set of groups. Small pools on purpose: contention is what
   exercises the conflict votes and the prepared locks. *)
let keys_for p s =
  let rec go i acc found =
    if found >= 4 then List.rev acc
    else
      let k = Printf.sprintf "x%d-%d" s i in
      if Partition.owner_of_key p ("kv/" ^ k) = s then go (i + 1) (k :: acc) (found + 1)
      else go (i + 1) acc found
  in
  Array.of_list (go 0 [] 0)

(* Drive a cross-shard transaction part-way by hand — per-shard branch
   ops, then prepares at a (possibly empty, possibly complete) subset of
   participants — and stop before any decision: an abandoned
   coordinator. [on_parked] fires once every submitted request has been
   answered, leaving the client's handles idle again. *)
let park_cross_txn t cl ~tid ~(shard_ops : (int * Kv.op) list) ~(prepare : int list)
    ~on_parked =
  M.round t cl ~what:"park ops"
    (List.map (fun (s, op) -> (s, [ M.submit_txn_op t cl ~tid op ])) shard_ops)
    (fun _ ->
      M.round t cl ~what:"park prepares"
        (List.map (fun s -> (s, [ M.submit_prepare t cl ~tid ~ops:1 ])) prepare)
        (fun _ -> on_parked ()))

(* 12 sequential cross-shard transactions over 2–3 groups each, a
   quarter of them abandoned mid-protocol and handed to a delayed
   recovery on a fresh client, racing two closed-loop single-shard
   clients (15 requests each) on the same small key pools. Any replica
   may crash as a transaction starts. *)
let xshard_drivers c =
  let t = c.t and rng = c.rng in
  let txns = 12 and singles_per_client = 15 in
  let pool = Array.init shards (fun s -> keys_for (M.partition t) s) in
  let gen_op s =
    let key = Rng.pick rng pool.(s) in
    if Rng.bool rng then Kv.Put { key; value = Printf.sprintf "s%d" (Rng.int rng 100) }
    else Kv.Append { key; value = "+" }
  in
  let maybe_crash () =
    if roll_crash c 0.3 then begin
      let g = Rng.int rng shards and r = Rng.int rng replicas in
      crash c g r ~back:(150.0 +. Rng.float rng 250.0)
    end
  in
  let committed = ref 0
  and aborted = ref 0
  and conflicted = ref 0
  and abandoned = ref 0
  and recovered = ref 0 in
  let launched = ref 0 in
  let pending_recoveries = ref 0 in
  let next_client = ref 10 in
  let cl = M.add_client t ~id:0 () in
  let rec next_txn i =
    if i < txns then begin
      launched := i + 1;
      maybe_crash ();
      let order = [| 0; 1; 2 |] in
      Rng.shuffle rng order;
      let parts =
        List.sort Int.compare
          (Array.to_list (Array.sub order 0 (2 + Rng.int rng (shards - 1))))
      in
      let shard_ops = List.map (fun s -> (s, gen_op s)) parts in
      if Rng.float rng 1.0 < 0.25 then begin
        incr abandoned;
        let tid = M.alloc_cross_tid t in
        let prepare = List.filter (fun _ -> Rng.bool rng) parts in
        park_cross_txn t cl ~tid ~shard_ops ~prepare ~on_parked:(fun () ->
            incr pending_recoveries;
            after c
              (80.0 +. Rng.float rng 150.0)
              (fun () ->
                let rcl = M.add_client t ~id:!next_client () in
                incr next_client;
                M.recover_cross_txn t rcl ~tid ~shards:parts
                  ~on_done:(fun (_ : M.xresult) ->
                    incr recovered;
                    decr pending_recoveries));
            next_txn (i + 1))
      end
      else
        ignore
          (M.submit_cross_txn t cl ~ops:(List.map snd shard_ops)
             ~on_done:(fun res ->
               (match res with
               | M.X_committed -> incr committed
               | M.X_aborted -> incr aborted
               | M.X_conflict -> incr conflicted);
               next_txn (i + 1)))
    end
  in
  let singles_total = 2 * singles_per_client in
  let single_done = ref 0 in
  let start_single id =
    let scl = M.add_client t ~id () in
    let sent = ref 0 in
    let submit_next () =
      if !sent < singles_per_client then begin
        incr sent;
        let s = Rng.int rng shards in
        let op =
          if Rng.bool rng then gen_op s else Kv.Get (Rng.pick rng pool.(s))
        in
        submit_or_fail t scl op "single-shard submit"
      end
    in
    M.set_on_reply t scl (fun _ ->
        incr single_done;
        submit_next ());
    submit_next ()
  in
  next_txn 0;
  start_single 1;
  start_single 2;
  {
    finished =
      (fun () ->
        !launched = txns && !pending_recoveries = 0 && !single_done = singles_total);
    stall =
      (fun () ->
        Printf.sprintf "%d/%d txns launched, %d recoveries pending, %d/%d singles"
          !launched txns !pending_recoveries !single_done singles_total);
    check = ignore;
    counts =
      (fun () ->
        {
          zero with
          committed = !committed;
          aborted = !aborted;
          conflicted = !conflicted;
          parked = !abandoned;
          recovered = !recovered;
          singles = !single_done;
        });
  }

(* ------------------------------------------------------------------ *)
(* Reshard: live split/merge against tagged appends                     *)

(* Cut points in footprint space: shard 0 owns [-inf,"kv/h"), shard 1
   ["kv/h","kv/p"), shard 2 ["kv/p",inf). Every transition moves
   ["kv/f","kv/h") out of (or back into) shard 0, so the "d"/"m"/"q"
   keys never move and the "f"/"g" keys migrate constantly. *)
let reshard_cuts = [ "kv/h"; "kv/p" ]
let reshard_cut = "kv/f"

let reshard_pool =
  [| "d0"; "d1"; "f0"; "f1"; "g0"; "g1"; "m0"; "m1"; "q0"; "q1" |]

let count_occurrences hay needle =
  let n = String.length needle and h = String.length hay in
  if n = 0 then 0
  else begin
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  end

(* How many times [token] occurs in [key]'s value at the key's final
   owner (its leader, or replica 0 if leaderless), and which group that
   is. *)
let count_at_owner t key token =
  let g = Partition.owner_of_key (M.partition t) ("kv/" ^ key) in
  let grp = M.group t g in
  let r = M.Group.replica grp (Option.value (M.Group.leader grp) ~default:0) in
  let v = Option.value ~default:"" (Kv.find (M.Group.R.state r) key) in
  (count_occurrences v token, g)

(* 6 strictly sequential split/merge transitions of one range, a fifth
   of the splits parked after FREEZE for presumed-abort recovery; 3
   closed-loop clients appending 30 tagged tokens each; 8 cross-shard
   transactions straddling the moving range. A leader of a migrating
   group may crash as a transition starts. *)
let reshard_drivers c =
  let t = c.t and rng = c.rng in
  let steps = 6 and appends_per_client = 30 in
  let maybe_crash_leader groups =
    if roll_crash c 0.35 then begin
      let g = List.nth groups (Rng.int rng (List.length groups)) in
      match M.Group.leader (M.group t g) with
      | None -> ()
      | Some r ->
        let at = Rng.float rng 60.0 in
        crash c g r ~at ~back:(200.0 +. Rng.float rng 300.0)
    end
  in
  (* The reshard chain. Odd steps move the range back so splits always
     start from a clean cut list; the epoch floor mirrors Multi's
     internal one so parked (raw) freezes never reuse a burned epoch. *)
  let splits = ref 0
  and merges = ref 0
  and aborted = ref 0
  and parked = ref 0 in
  let steps_done = ref false in
  let split_active = ref false in
  let floor = ref 1 in
  let next_client = ref 100 in
  let coord = M.add_client t ~id:50 () in
  let attempt_epoch () = max (Partition.epoch (M.partition t) + 1) !floor in
  let rec next_step i =
    if i >= steps then steps_done := true
    else after c (30.0 +. Rng.float rng 120.0) (fun () -> do_step i)
  and do_step i =
    if not !split_active then begin
      let target = 1 + Rng.int rng 2 in
      maybe_crash_leader [ 0; target ];
      if Rng.float rng 1.0 < 0.2 then park_freeze i target
      else begin
        let e = attempt_epoch () in
        floor := e + 1;
        match
          M.split_shard t coord ~cut:reshard_cut ~target ~on_done:(fun r ->
              (match r with
              | M.R_committed ->
                incr splits;
                split_active := true
              | M.R_aborted _ -> incr aborted);
              next_step (i + 1))
        with
        | Ok () -> ()
        | Error e ->
          violate c "split plan: %a" Partition.pp_reshard_error e;
          next_step (i + 1)
      end
    end
    else begin
      maybe_crash_leader [ 0; 1; 2 ];
      let e = attempt_epoch () in
      floor := e + 1;
      match
        M.merge_shards t coord ~cut:reshard_cut ~on_done:(fun r ->
            (match r with
            | M.R_committed ->
              incr merges;
              split_active := false
            | M.R_aborted _ -> incr aborted);
            next_step (i + 1))
      with
      | Ok () -> ()
      | Error e ->
        violate c "merge plan: %a" Partition.pp_reshard_error e;
        next_step (i + 1)
    end
  and park_freeze i target =
    (* Abandoned coordinator: commit the FREEZE and vanish; a delayed
       presumed-abort recovery on a fresh client rolls it back and
       releases any writers blocked on the frozen range. *)
    match Reshard.split (M.partition t) ~cut:reshard_cut ~target with
    | Error e ->
      violate c "park plan: %a" Partition.pp_reshard_error e;
      next_step (i + 1)
    | Ok o -> (
      let o =
        let e =
          match o with
          | Reshard.Trivial m -> Partition.epoch m
          | Reshard.Move p -> p.Reshard.pl_epoch
        in
        if e < !floor then Reshard.at_epoch o ~epoch:!floor else o
      in
      match o with
      | Reshard.Trivial _ -> next_step (i + 1)
      | Reshard.Move p ->
        let e = p.Reshard.pl_epoch in
        floor := e + 1;
        incr parked;
        let source = p.Reshard.pl_move.Partition.source in
        let freeze =
          M.submit_reshard t coord (Types.Reshard_freeze e) ~payload:p.Reshard.pl_freeze
        in
        M.round t coord ~what:"park freeze" [ (source, [ freeze ]) ] (fun _ ->
            after c
              (60.0 +. Rng.float rng 150.0)
              (fun () ->
                let rcl = M.add_client t ~id:!next_client () in
                incr next_client;
                M.recover_reshard t rcl ~epoch:e ~source
                  ~target:p.Reshard.pl_move.Partition.target ~on_done:(fun r ->
                    (match r with
                    | M.R_aborted _ -> incr aborted
                    | M.R_committed ->
                      incr splits;
                      split_active := true);
                    next_step (i + 1)))))
  in
  (* Closed-loop appenders tagging every write with a unique token; the
     redirect wrapper hides Wrong_epoch from them, so an Ok reply is an
     ack whatever epoch finally served the request. *)
  let acked = ref [] in
  let clients = 3 in
  let appender_done = ref 0 in
  let appender_clients = ref [] in
  let start_appender idx =
    let scl = M.add_client t ~id:(10 + idx) () in
    appender_clients := scl :: !appender_clients;
    let sent = ref 0 in
    let cur = ref None in
    let submit_next () =
      if !sent >= appends_per_client then incr appender_done
      else begin
        incr sent;
        let key = Rng.pick rng reshard_pool in
        if Rng.float rng 1.0 < 0.2 then begin
          cur := None;
          submit_or_fail t scl (Kv.Get key) "get"
        end
        else begin
          let token = Printf.sprintf "+%d.%d;" idx !sent in
          cur := Some (key, token);
          submit_or_fail t scl (Kv.Append { key; value = token }) "append"
        end
      end
    in
    M.set_on_reply t scl (fun (r : Types.reply) ->
        (match !cur with
        | Some (key, token) when r.status = Types.Ok ->
          acked := (key, token) :: !acked
        | _ -> ());
        submit_next ());
    submit_next ()
  in
  (* Cross-shard transactions racing the migrations: each appends a
     unique token to a key inside the moving range plus one stable key
     in each of the other two groups, so every transaction spans the
     epoch boundary. *)
  let xtxn_moving = [| "f9"; "g9" |] in
  let xtxn_stable = [ "m9"; "q9" ] in
  let xtxns = 8 in
  let xtxn_results = ref [] in
  let x_committed = ref 0 and x_aborted = ref 0 and x_conflicted = ref 0 in
  let xtxn_done = ref false in
  let xcl = M.add_client t ~id:7 () in
  let rec next_xtxn i =
    if i >= xtxns then xtxn_done := true
    else
      after c
        (20.0 +. Rng.float rng 140.0)
        (fun () ->
          let mk = Rng.pick rng xtxn_moving in
          let token = Printf.sprintf "x%d;" i in
          let ops =
            List.map (fun key -> Kv.Append { key; value = token }) (mk :: xtxn_stable)
          in
          ignore
            (M.submit_cross_txn t xcl ~ops ~on_done:(fun res ->
                 (match res with
                 | M.X_committed -> incr x_committed
                 | M.X_aborted -> incr x_aborted
                 | M.X_conflict -> incr x_conflicted);
                 xtxn_results := (token, mk, res) :: !xtxn_results;
                 next_xtxn (i + 1))))
  in
  next_step 0;
  next_xtxn 0;
  for i = 0 to clients - 1 do
    start_appender i
  done;
  (* Across any number of epoch changes: every acked append appears
     exactly once at its key's final owner — no lost and no
     double-executed acked write — and a committed transaction's token
     appears exactly once on every key it touched (in particular the
     moving key was not lost in a slice shipped under a prepared lock),
     an aborted one's on none. *)
  let check () =
    List.iter
      (fun (token, mk, res) ->
        let expect = match res with M.X_committed -> 1 | _ -> 0 in
        List.iter
          (fun key ->
            let n, _ = count_at_owner t key token in
            if n <> expect then
              violate c "cross txn %s (%a) applied %d times (want %d) on %s" token
                M.pp_xresult res n expect key)
          (mk :: xtxn_stable))
      !xtxn_results;
    List.iter
      (fun (key, token) ->
        let n, g = count_at_owner t key token in
        if n <> 1 then
          violate c "acked append %s on %s applied %d times at final owner %d" token
            key n g)
      !acked
  in
  {
    finished = (fun () -> !steps_done && !appender_done = clients && !xtxn_done);
    stall =
      (fun () ->
        Printf.sprintf "steps_done=%b, %d/%d appenders finished, xtxns done=%b"
          !steps_done !appender_done clients !xtxn_done);
    check;
    counts =
      (fun () ->
        {
          zero with
          splits = !splits;
          merges = !merges;
          moves_aborted = !aborted;
          parked = !parked;
          redirects =
            List.fold_left (fun acc cl -> acc + M.redirect_count cl) 0 !appender_clients;
          acked = List.length !acked;
          committed = !x_committed;
          aborted = !x_aborted;
          conflicted = !x_conflicted;
        });
  }

(* ------------------------------------------------------------------ *)
(* The skeleton                                                        *)

type shape = {
  salt : int;
  stride : int;  (* the schedule's RNG seed is [salt + seed * stride] *)
  spec : Partition.spec option;
  horizon_ms : float;
  start : ctx -> drivers;
}

let shape = function
  | Xshard ->
    {
      salt = 0x5eed;
      stride = 7919;
      spec = None;
      horizon_ms = 120_000.0;
      start = xshard_drivers;
    }
  | Reshard ->
    {
      salt = 0xe57a;
      stride = 104729;
      spec = Some (Partition.Range reshard_cuts);
      horizon_ms = 180_000.0;
      start = reshard_drivers;
    }

(* Span recording for a traced schedule: large enough that one
   schedule's spans never wrap (the columns grow on demand). *)
let trace_capacity = 1 lsl 20

let replica_dump grp =
  String.concat ""
    (List.init replicas (fun i ->
         let r = M.Group.replica grp i in
         Printf.sprintf "[r%d up=%b ldr=%b bal=%s view=%s phase=%s cp=%d] " i
           (M.Group.replica_up grp i) (M.Group.R.is_leader r)
           (Format.asprintf "%a" Types.Ballot.pp (M.Group.R.ballot r))
           (match M.Group.R.leader_view r with Some v -> string_of_int v | None -> "-")
           (M.Group.R.reshard_phase r) (M.Group.R.commit_point r)))

(* After the drain every group agrees, has a leader, and that leader
   holds no prepared transaction and no half-done reshard. Returns every
   replica's entries merged by instance, for the cross-shard checker: a
   replica that caught up by snapshot has holes in its history, and
   [Agreement.check] requires the histories to agree where they overlap. *)
let check_group c g =
  let grp = M.group c.t g in
  let hs =
    Array.init replicas (fun i -> M.Group.R.committed_updates (M.Group.replica grp i))
  in
  List.iter
    (fun v -> violate c "group %d agreement: %a" g Agreement.pp_violation v)
    (Agreement.check hs);
  (match M.Group.leader grp with
  | Some l ->
    let r = M.Group.replica grp l in
    (match M.Group.R.prepared_txns r with
    | [] -> ()
    | tids ->
      violate c "group %d leader still holds prepares [%s] after drain" g
        (String.concat "," (List.map string_of_int tids)));
    if M.Group.R.reshard_phase r <> "idle" then
      violate c "group %d still %s after drain" g (M.Group.R.reshard_phase r)
  | None -> violate c "group %d has no leader after drain: %s" g (replica_dump grp));
  List.sort_uniq (fun (i, _, _) (j, _, _) -> Int.compare i j) (List.concat (Array.to_list hs))

let run_one ?trace ~seed tier =
  let sh = shape tier in
  let rng = Rng.of_int (sh.salt + (seed * sh.stride)) in
  let cfg =
    Config.make ~n:replicas ~record_history:true ~suspicion_ms:60.0
      ~stability_ms:20.0 ()
  in
  let t =
    M.create ~seed ~trace:(trace <> None) ~trace_capacity ~cfg
      ~scenario:(Scenario.uniform ~n:replicas ())
      ~route:Kv.route ?spec:sh.spec ~shards ()
  in
  let c = { t; rng; violations = []; down = None; crashes = 0 } in
  if Option.is_none (M.await_leaders t) then violate c "no initial leaders";
  let net = M.network t in
  Network.set_duplicate_rate net 0.02;
  Network.set_reorder_rate net 0.05;
  let d = sh.start c in
  let horizon = M.now t +. sh.horizon_ms in
  while (not (d.finished ())) && M.now t < horizon do
    M.run_until t (M.now t +. 25.0)
  done;
  if not (d.finished ()) then violate c "stalled: %s" (d.stall ());
  (* Drain: heal everything and let every replica learn every commit.
     Only restart a replica whose scheduled crash actually fired;
     recovering a live one would restart it and distort the drain. *)
  (match c.down with
  | Some (g, r) ->
    if not (M.Group.replica_up (M.group t g) r) then M.recover_replica t ~shard:g r;
    c.down <- None
  | None -> ());
  Network.set_duplicate_rate net 0.0;
  Network.set_reorder_rate net 0.0;
  M.run_until t (M.now t +. 2_000.0);
  (* Oracles. The cross-shard checker reads histories that interleave
     2PC prepares and decisions with reshard markers and imported
     slices, and must still find one consistent decision per cross-tid. *)
  let merged = Array.init shards (check_group c) in
  List.iter
    (fun v -> violate c "xshard: %a" Xshard.pp_violation v)
    (Xshard.check ~require_resolved:true ~is_cross_tid:M.is_cross_tid ~footprint_of
       merged);
  d.check ();
  let fired = Grid_obs.Watchdog.violations (M.watchdog t) in
  if fired > 0 then violate c "watchdog: %d online-invariant violations" fired;
  Option.iter (fun f -> f (Grid_obs.Span.Recorder.events (M.obs t))) trace;
  {
    tier;
    seed;
    counts = { (d.counts ()) with crashes = c.crashes };
    violations = List.rev c.violations;
  }
