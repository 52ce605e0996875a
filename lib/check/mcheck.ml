(** Randomized-schedule state-space exploration for the protocol engines.

    Because the replica and client engines are pure step machines, a
    scheduler that owns the message pool and timer set can drive them
    through interleavings far more adversarial than the latency-ordered
    ones the simulator produces: reordering across pairs (FIFO per pair
    is preserved, as with TCP), arbitrarily late timer firings, crashes
    and recoveries at any step.

    This version adds a nemesis: per-delivery duplication and reordering
    dice, torn-persist crashes (the process dies while writing a step's
    records, so only a prefix of them lands and none of the step's
    messages leave), and crash-consistent recovery — a revived replica is
    rebuilt from its persisted image via {!Replica.load}, not from its
    in-memory carcass. Every fault that fires is recorded in a {!plan},
    at most one per (scheduler step, fault site), so a failing run can be
    replayed exactly and then shrunk to a minimal failing schedule.

    Each run uses one seed; scheduling choices and fault dice draw from
    two separate RNG streams. Each fault site makes one decision ([fault])
    that either rolls the fault dice or, given a plan, reads it; the
    fault's effect is written once, after that decision. Replaying a
    recorded plan therefore rolls no fault dice and leaves the scheduling
    stream — and hence the schedule — unchanged. *)

module Rng = Grid_util.Rng
open Grid_paxos.Types

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

type fault_event =
  | Crash_at of { step : int; victim : int; torn : bool }
  | Recover_at of { step : int; victim : int }
  | Duplicate_at of { step : int }
  | Reorder_at of { step : int; depth : int }
  | Drift_at of { step : int; victim : int; offset_ms : float }
      (** the victim's clock jumps to virtual time + [offset_ms]; attacks
          the leader-lease clock-skew bound *)
  | Upgrade_at of { step : int; victim : int; version : int }
      (** rolling upgrade: the victim is bounced (crash-consistent
          restart) and comes back speaking wire-protocol [version] *)
  | Tear_at of { step : int; victim : int; kept : int; records : int }
      (** an armed torn crash struck: the first [kept] of the step's
          [records] records landed *)

type plan = fault_event list

(* Where in a step a fault is decided: the step's nemesis event, the
   reorder and the duplicate of the message it delivers, or the tear of
   the engine step that message or timer drives. A plan holds at most
   one event per (step, site). *)
type site = Nemesis | Reorder | Duplicate | Tear

let fault_key = function
  | Crash_at { step; _ } | Recover_at { step; _ } | Drift_at { step; _ }
  | Upgrade_at { step; _ } -> (step, Nemesis)
  | Reorder_at { step; _ } -> (step, Reorder)
  | Duplicate_at { step } -> (step, Duplicate)
  | Tear_at { step; _ } -> (step, Tear)

let pp_fault ppf = function
  | Crash_at { step; victim; torn } ->
    Format.fprintf ppf "@%d crash(%d%s)" step victim (if torn then ",torn" else "")
  | Recover_at { step; victim } -> Format.fprintf ppf "@%d recover(%d)" step victim
  | Duplicate_at { step } -> Format.fprintf ppf "@%d duplicate" step
  | Reorder_at { step; depth } -> Format.fprintf ppf "@%d reorder(+%d)" step depth
  | Drift_at { step; victim; offset_ms } ->
    Format.fprintf ppf "@%d drift(%d,%+.2fms)" step victim offset_ms
  | Upgrade_at { step; victim; version } ->
    Format.fprintf ppf "@%d upgrade(%d,v%d)" step victim version
  | Tear_at { step; victim; kept; records } ->
    Format.fprintf ppf "@%d tear(%d, %d of %d)" step victim kept records

let pp_plan ppf plan =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_fault)
    plan

type nemesis = {
  crash_prob : float;  (** per-step probability of a crash (recover: 2x window) *)
  torn_frac : float;
      (** fraction of crashes that are torn: the victim dies while writing
          the records of its next persisting step instead of between
          steps *)
  dup_prob : float;  (** per-delivery probability of re-enqueuing a copy *)
  reorder_prob : float;
      (** per-delivery probability of delivering from the middle of the
          channel instead of its head *)
  drift_prob : float;
      (** per-step probability that one replica's clock jumps to a fresh
          offset from virtual time *)
  drift_max_ms : float;  (** drifted offsets are uniform in [-max, +max] *)
}

let no_faults =
  { crash_prob = 0.0; torn_frac = 0.0; dup_prob = 0.0; reorder_prob = 0.0;
    drift_prob = 0.0; drift_max_ms = 0.0 }

(* Greedy event-removal shrinking: repeatedly try dropping each event;
   keep any removal after which the schedule still fails. One-at-a-time
   passes loop to a fixed point. *)
let shrink_plan ~still_fails plan =
  let current = ref plan in
  let changed = ref true in
  while !changed do
    changed := false;
    let rec pass kept = function
      | [] -> List.rev kept
      | ev :: rest ->
        let candidate = List.rev_append kept rest in
        if still_fails candidate then begin
          changed := true;
          pass kept rest
        end
        else pass (ev :: kept) rest
    in
    current := pass [] !current
  done;
  !current

type outcome = {
  replies : reply list;
  violations : Agreement.violation list;
  durability : string list;
      (** crash-recovery invariant breaches: a revived replica whose
          reloaded state disagrees with what the group committed *)
  stale_reads : string list;
      (** reads whose reply reflects fewer writes than were committed
          before the read was issued — the invariant the leader-lease
          fast path must preserve under clock drift and failovers *)
  lost_admitted : string list;
      (** admitted-loss oracle breaches: writes acknowledged [Ok] to the
          client that no replica ever observed committed — the invariant
          admission control must preserve while shedding under overload *)
  admitted_latencies : float array;
      (** virtual-time first-injection-to-final-reply latency of every
          request that completed, in completion order; [Overloaded]
          pushback rounds are included in the latency of the eventual
          completion, so the p99 of this array is what the
          bounded-admitted-latency oracle inspects *)
  committed : int array;  (** commit point per replica at the end *)
  delivered : int;
  timer_fires : int;
  all_replied : bool;
  plan : plan;
      (** the faults that actually fired, in order — replayable *)
  crashes : int;
  torn_persists : int;  (** persists that died mid-write *)
  duplicated : int;
  reordered : int;
  drifted : int;  (** clock-drift injections that fired *)
  upgraded : int;  (** rolling-upgrade bounces that fired *)
  shed : int;  (** [Overloaded] replies the leaders pushed back *)
  wire_errors : string list;
      (** wire-codec oracle breaches: a message that failed the encode →
          decode roundtrip through the version negotiated for its link —
          empty unless the run models wire versions ([wire_versions]) *)
  watchdog_violations : int;
      (** online invariant checks ({!Grid_obs.Watchdog}) that fired inside
          the replicas during the run — the runtime mirror of the offline
          oracles above, asserted silent on green schedules *)
  watchdog_detail : string list;
      (** one line per violation, in firing order *)
}

(* ------------------------------------------------------------------ *)
(* Storage faults                                                      *)

(* A tear is the process dying while it writes the step's records: the
   first [k] of them land, as [Storage.file]'s one flushed frame per
   record and its renamed snapshot file leave them, and none of the
   step's sends or timers happen. [tear n] decides [k] for a step of [n]
   records, or [None] when the step survives; a step without records
   passes untouched. *)
let persist_step store ~tear { persist; out } =
  match if persist = [] then None else tear (List.length persist) with
  | None ->
    List.iter (Grid_paxos.Storage.apply store) persist;
    Some out
  | Some k ->
    List.iteri (fun j p -> if j < k then Grid_paxos.Storage.apply store p) persist;
    None

module Make (S : Grid_paxos.Service_intf.S) = struct
  module R = Grid_paxos.Replica.Make (S)

  (* Where fault decisions come from: the fault dice, or a plan. *)
  type mode = Record of Rng.t | Replay of (int * site, fault_event) Hashtbl.t

  type sched = {
    rng : Rng.t;  (* scheduling choices only; fault dice are in [mode] *)
    base_seed : int;
    cfg : Grid_paxos.Config.t;
    replicas : R.t array;
    down : bool array;
    stores : Grid_paxos.Storage.t array;
    reads : (unit -> Grid_paxos.Storage.persisted) array;
    armed : bool array;  (* a torn crash waits for the replica's next write *)
    (* The dice's rates; [no_faults] while draining. A replay reads the
       plan instead. *)
    mutable nem : nemesis;
    (* FIFO queue per directed pair, keyed (src, dst); client requests
       travel through these too, so the nemesis dice apply to them. *)
    channels : (int * int, msg Queue.t) Hashtbl.t;
    mutable timers : (int * timer * float) list;
    mutable vnow : float;
    (* Per-replica clock offset from virtual time, in ms. Timers stay on
       virtual time (they measure durations); only the [now] a replica
       reads — and hence its lease arithmetic — is skewed. *)
    skew : float array;
    mutable replies : reply list;
    mutable delivered : int;
    mutable timer_fires : int;
    mutable nstep : int;
    mode : mode;
    mutable plan_rev : fault_event list;
    (* Wire-version model: [Some versions] runs every delivered message
       through the codec negotiated for its link — min of the endpoints'
       versions, clients always at latest — exactly what the TCP
       handshake would settle on. [None] skips codecs entirely (the
       pre-versioning behaviour, and the default). *)
    wire : int array option;
    (* step -> (victim, version): scripted upgrades, applied in Record
       mode; replay takes its [Upgrade_at]s from the plan instead. *)
    upgrades_tbl : (int, int * int) Hashtbl.t;
    mutable wire_errors : string list;
    (* instance -> (request key, encoded state after): the union of every
       committed update any incarnation of any replica has reported. *)
    oracle : (int, string * string) Hashtbl.t;
    (* (client, seq) of every request observed in a committed instance —
       the admitted-loss oracle checks acknowledged writes against it. *)
    committed_ids : (int * int, unit) Hashtbl.t;
    (* (client, seq) -> virtual time of the first final reply captured *)
    reply_times : (int * int, float) Hashtbl.t;
    mutable durability : string list;
    mutable crashes : int;
    mutable shed : int;  (* Overloaded replies observed *)
    (* Lifecycle spans recorded by the replicas, timed on [vnow] — fully
       deterministic for a given seed, which the trace tests exploit. *)
    obs : Grid_obs.Span.Recorder.t;
    (* Online invariant sink shared by every replica incarnation: the
       runtime mirror of the offline oracles below. Green schedules keep
       it silent; planted bugs (disable_dedup) fire it. *)
    wd : Grid_obs.Watchdog.t;
  }

  let record sched ev = sched.plan_rev <- ev :: sched.plan_rev

  (* The one fault decision at [site] of this step: [roll] the dice at
     the current rates when recording, read the plan when replaying. *)
  let fault sched site roll =
    match sched.mode with
    | Record frng -> roll sched.nem frng
    | Replay tbl -> Hashtbl.find_opt tbl (sched.nstep, site)

  let enqueue sched ~src ~dst msg =
    let q =
      match Hashtbl.find_opt sched.channels (src, dst) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace sched.channels (src, dst) q;
        q
    in
    Queue.add msg q

  (* Remove and return the [n]-th element (0-based) of [q]. *)
  let take_nth q n =
    let n = min n (Queue.length q - 1) in
    let prefix = Queue.create () in
    for _ = 1 to n do
      Queue.add (Queue.take q) prefix
    done;
    let x = Queue.take q in
    Queue.transfer q prefix;
    Queue.transfer prefix q;
    x

  let mark_down sched i =
    if not sched.down.(i) then begin
      sched.down.(i) <- true;
      sched.crashes <- sched.crashes + 1;
      (* Its in-flight timers die with it. *)
      sched.timers <- List.filter (fun (j, _, _) -> j <> i) sched.timers
    end

  (* An armed replica's step with [n] records is torn: the first [kept]
     land. [kept] is the one fault decision at this step's [Tear] site. *)
  let tear sched i n =
    if not sched.armed.(i) then None
    else
      let roll _ frng =
        Some
          (Tear_at
             { step = sched.nstep; victim = i; kept = Rng.int frng (n + 1); records = n })
      in
      match fault sched Tear roll with
      | Some (Tear_at { victim; kept; _ }) when victim = i ->
        let kept = min kept n in
        record sched (Tear_at { step = sched.nstep; victim = i; kept; records = n });
        Some kept
      | _ -> None

  (* The step's records go to the replica's store before any of its
     messages or timers; a torn step is the crash. *)
  let exec_step sched i step =
    match persist_step sched.stores.(i) ~tear:(tear sched i) step with
    | None ->
      sched.armed.(i) <- false;
      mark_down sched i
    | Some rest ->
      List.iter
        (function
          | Send { dst; msg } ->
            if node_is_client dst then begin
              match msg with
              (* [Retry] (redirect) and [Overloaded] (admission pushback)
                 are not completions: the closed-loop client keeps the
                 request pending and retransmits it. Only final statuses
                 enter the observed-reply history. *)
              | Reply_msg { status = Overloaded _; _ } ->
                sched.shed <- sched.shed + 1
              | Reply_msg r when status_is_final r.status ->
                let key =
                  (Grid_util.Ids.Client_id.to_int r.req.client, r.req.seq)
                in
                if not (Hashtbl.mem sched.reply_times key) then
                  Hashtbl.replace sched.reply_times key sched.vnow;
                sched.replies <- r :: sched.replies
              | _ -> ()
            end
            else enqueue sched ~src:i ~dst msg
          | After { delay; timer } ->
            sched.timers <- (i, timer, sched.vnow +. delay) :: sched.timers
          | Note _ -> ())
        rest

  (* A torn crash is armed: it strikes when the victim next writes to
     its store ([exec_step]). *)
  let crash_replica sched victim ~torn =
    sched.armed.(victim) <- torn;
    if not torn then mark_down sched victim

  (* The wire model: encode with the link's negotiated codec, decode the
     bytes back, deliver the decoded message. A roundtrip failure is an
     oracle breach (the codecs must be lossless for every reachable
     message) and the message is dropped, as the transport drops a
     corrupt frame; retransmission decides liveness from there. *)
  let wire_roundtrip sched ~src ~dst msg =
    match sched.wire with
    | None -> Some msg
    | Some w ->
      let version_of n =
        if node_is_client n then Grid_paxos.Wire_codec.latest_version else w.(n)
      in
      let v = min (version_of src) (version_of dst) in
      let module W =
        (val Grid_paxos.Wire_codec.of_version_exn v : Grid_codec.Wire_intf.WIRE
           with type msg = msg)
      in
      (match W.decode (W.encode msg) with
      | Stdlib.Ok m -> Some m
      | Stdlib.Error e ->
        sched.wire_errors <-
          Printf.sprintf "step %d, %d -> %d (%s over v%d): %s" sched.nstep src
            dst (msg_kind msg) v
            (Grid_codec.Wire_intf.decode_error_to_string e)
          :: sched.wire_errors;
        None)

  let dispatch sched i input =
    if not sched.down.(i) then
      exec_step sched i
        (R.handle sched.replicas.(i) ~now:(sched.vnow +. sched.skew.(i)) input)

  (* ---------------------------------------------------------------- *)
  (* Durability oracle                                                 *)

  let merge_history sched replica history =
    List.iter
      (fun (instance, reqs, state) ->
        List.iter
          (fun (r : request) ->
            Hashtbl.replace sched.committed_ids
              (Grid_util.Ids.Client_id.to_int r.id.client, r.id.seq)
              ())
          reqs;
        let key = Agreement.request_key reqs in
        match Hashtbl.find_opt sched.oracle instance with
        | None -> Hashtbl.replace sched.oracle instance (key, state)
        | Some (k0, s0) ->
          if not (String.equal k0 key && String.equal s0 state) then
            sched.durability <-
              Printf.sprintf
                "replica %d committed a different value for instance %d than \
                 previously observed"
                replica instance
              :: sched.durability)
      history

  let refresh_oracle sched =
    Array.iteri
      (fun i r -> merge_history sched i (R.committed_updates r))
      sched.replicas

  (* Rebuild [back] from its persisted image — true crash-consistent
     recovery, unlike an in-place [R.restart] which would keep whatever
     the in-memory object happened to hold. The reloaded state must match
     the committed prefix the group observed: that is the durability
     invariant the nemesis exists to attack. *)
  let revive sched back =
    refresh_oracle sched;
    let r =
      R.create ~cfg:sched.cfg ~id:back ~seed:(sched.base_seed + back)
        ~obs:sched.obs ~watchdog:sched.wd ()
    in
    R.load r (sched.reads.(back) ());
    sched.replicas.(back) <- r;
    merge_history sched back (R.committed_updates r);
    let cp = R.commit_point r in
    if cp > 0 then begin
      match Hashtbl.find_opt sched.oracle cp with
      | Some (_, st) ->
        if not (String.equal st (S.encode_state (R.state r))) then
          sched.durability <-
            Printf.sprintf
              "replica %d recovered a state at instance %d that differs from \
               the committed one"
              back cp
            :: sched.durability
      | None ->
        sched.durability <-
          Printf.sprintf
            "replica %d recovered to commit point %d, which was never observed \
             committed"
            back cp
          :: sched.durability
    end;
    (* Messages queued toward it while down are lost (TCP reset). *)
    Hashtbl.iter (fun (_, dst) q -> if dst = back then Queue.clear q) sched.channels;
    sched.down.(back) <- false;
    exec_step sched back (R.restart r ~now:(sched.vnow +. sched.skew.(back)))

  (* A rolling upgrade bounces the victim — crash-consistent restart
     under a binary that speaks [version]. An already-down victim just
     has its version changed; it picks it up when it recovers. *)
  let apply_upgrade sched ~victim ~version =
    (match sched.wire with Some w -> w.(victim) <- version | None -> ());
    if not sched.down.(victim) then begin
      crash_replica sched victim ~torn:false;
      revive sched victim
    end

  (* ---------------------------------------------------------------- *)
  (* Scheduling                                                        *)

  let deliverable_pairs sched =
    Hashtbl.fold
      (fun (src, dst) q acc ->
        if (not (Queue.is_empty q)) && not sched.down.(dst) then (src, dst) :: acc
        else acc)
      sched.channels []
    |> List.sort compare

  (* The nemesis keeps at most this many replicas down at once, so the
     3-replica group always keeps a quorum. *)
  let max_down = 1

  let replicas sched ~down =
    List.filter
      (fun i -> sched.down.(i) = down)
      (Grid_paxos.Config.replica_ids sched.cfg)

  let down_count sched = List.length (replicas sched ~down:true)

  (* The dice for this step's nemesis event. Scripted rolling upgrades
     fire at their exact step, ahead of the dice. The drift dice roll
     only when drift is enabled, so seeds explored without drift keep
     their schedules; then one crash roll picks a crash, a recovery or
     nothing. *)
  let roll_nemesis sched nem frng =
    let step = sched.nstep in
    let down_count = down_count sched in
    match Hashtbl.find_opt sched.upgrades_tbl step with
    | Some (victim, version) -> Some (Upgrade_at { step; victim; version })
    | None when nem.drift_prob > 0.0 && Rng.float frng 1.0 < nem.drift_prob ->
      let victim = Rng.int frng sched.cfg.n in
      let offset_ms = Rng.float frng (2.0 *. nem.drift_max_ms) -. nem.drift_max_ms in
      Some (Drift_at { step; victim; offset_ms })
    | None when nem.crash_prob > 0.0 ->
      let roll = Rng.float frng 1.0 in
      if roll < nem.crash_prob && down_count < max_down then begin
        let victim = Rng.pick_list frng (replicas sched ~down:false) in
        let torn = nem.torn_frac > 0.0 && Rng.float frng 1.0 < nem.torn_frac in
        Some (Crash_at { step; victim; torn })
      end
      else if roll < 2.0 *. nem.crash_prob && down_count > 0 then
        let victim = Rng.pick_list frng (replicas sched ~down:true) in
        Some (Recover_at { step; victim })
      else None
    | None -> None

  (* This step's nemesis event, if any; [true] if it consumed the step.
     Best effort under shrinking: an event whose precondition no longer
     holds (victim already down / already up, or [max_down] replicas
     already down) is skipped and not recorded, so a shrunk plan stays
     inside the fault model the dice generate. *)
  let nemesis_step sched =
    match fault sched Nemesis (roll_nemesis sched) with
    | None -> false
    | Some ev ->
      let fired =
        match ev with
        | Crash_at { victim; torn; _ }
          when (not sched.down.(victim)) && down_count sched < max_down ->
          crash_replica sched victim ~torn;
          true
        | Recover_at { victim; _ } when sched.down.(victim) ->
          revive sched victim;
          true
        | Drift_at { victim; offset_ms; _ } ->
          sched.skew.(victim) <- offset_ms;
          true
        | Upgrade_at { victim; version; _ } ->
          apply_upgrade sched ~victim ~version;
          true
        | _ -> false
      in
      if fired then record sched ev;
      fired

  (* One scheduling step: a nemesis event, a message delivery (possibly
     reordered within its channel, possibly duplicated), or a timer
     firing. Weights bias toward delivery so runs make progress. *)
  let step sched =
    if nemesis_step sched then true
    else begin
      let pairs = deliverable_pairs sched in
      let timers = sched.timers in
      let deliver () =
        match pairs with
        | [] -> false
        | _ ->
          let src, dst = Rng.pick_list sched.rng pairs in
          let q = Hashtbl.find sched.channels (src, dst) in
          let reorder nem frng =
            if
              Queue.length q >= 2
              && nem.reorder_prob > 0.0
              && Rng.float frng 1.0 < nem.reorder_prob
            then
              let depth = 1 + Rng.int frng (Queue.length q - 1) in
              Some (Reorder_at { step = sched.nstep; depth })
            else None
          in
          let msg =
            match fault sched Reorder reorder with
            | Some (Reorder_at { depth; _ } as ev) when Queue.length q >= 2 ->
              record sched ev;
              take_nth q depth
            | _ -> Queue.take q
          in
          (* Duplication re-enqueues the message at the channel's tail: a
             retransmitted copy that arrives again later. *)
          let duplicate nem frng =
            if nem.dup_prob > 0.0 && Rng.float frng 1.0 < nem.dup_prob then
              Some (Duplicate_at { step = sched.nstep })
            else None
          in
          (match fault sched Duplicate duplicate with
          | Some ev ->
            record sched ev;
            Queue.add msg q
          | None -> ());
          (match wire_roundtrip sched ~src ~dst msg with
          | Some msg ->
            sched.delivered <- sched.delivered + 1;
            dispatch sched dst (Receive { src; msg })
          | None -> ());
          true
      in
      let fire () =
        let live = List.filter (fun (i, _, _) -> not sched.down.(i)) timers in
        match live with
        | [] -> false
        | _ ->
          let ((i, timer, due) as chosen) = Rng.pick_list sched.rng live in
          sched.timers <- List.filter (fun t -> t != chosen) sched.timers;
          sched.vnow <- Float.max sched.vnow due;
          sched.timer_fires <- sched.timer_fires + 1;
          dispatch sched i (Timer timer);
          true
      in
      (* Prefer delivering a message 3:1 over firing a timer. *)
      if pairs <> [] && (timers = [] || Rng.int sched.rng 4 < 3) then deliver ()
      else if fire () then true
      else deliver ()
    end

  (* ---------------------------------------------------------------- *)
  (* Runs                                                              *)

  (* Typed request triple: the class comes from [S.classify] and the
     payload from [S.encode_op], so callers never build wire strings. *)
  let request client op =
    ( client,
      (match S.classify op with `Read -> Read | `Write -> Write),
      S.encode_op op )

  let explore ?(obs = Grid_obs.Span.Recorder.disabled) ?(seed = 1)
      ?(steps = 5_000) ?(nemesis = no_faults) ?(cfg_tweak = Fun.id) ?(requests = [])
      ?wire_versions ?(upgrades = []) ?plan () =
    let rng = Rng.of_int seed in
    let mode =
      match plan with
      | None -> Record (Rng.of_int (seed lxor 0x6e656d))
      | Some plan ->
        let tbl = Hashtbl.create (List.length plan) in
        List.iter (fun ev -> Hashtbl.replace tbl (fault_key ev) ev) plan;
        Replay tbl
    in
    let cfg : Grid_paxos.Config.t =
      cfg_tweak (Grid_paxos.Config.make ~n:3 ~record_history:true ())
    in
    let wire =
      match wire_versions with
      | None -> if upgrades = [] then None else Some (Array.make cfg.n 1)
      | Some vs ->
        if Array.length vs <> cfg.n then
          invalid_arg "Mcheck: wire_versions must list one version per replica";
        Array.iter
          (fun v ->
            if Grid_paxos.Wire_codec.of_version v = None then
              invalid_arg (Printf.sprintf "Mcheck: unknown wire version %d" v))
          vs;
        Some (Array.copy vs)
    in
    let upgrades_tbl = Hashtbl.create (List.length upgrades) in
    List.iter
      (fun (step, victim, version) ->
        if victim < 0 || victim >= cfg.n then
          invalid_arg "Mcheck: upgrade victim out of range";
        if Grid_paxos.Wire_codec.of_version version = None then
          invalid_arg (Printf.sprintf "Mcheck: unknown wire version %d" version);
        Hashtbl.replace upgrades_tbl step (victim, version))
      upgrades;
    let stores, reads =
      Array.split (Array.init cfg.n (fun _ -> Grid_paxos.Storage.memory ()))
    in
    let wd_detail = ref [] in
    let wd =
      Grid_obs.Watchdog.create
        ~on_violation:(fun ~check ~detail ->
          wd_detail := (check ^ ": " ^ detail) :: !wd_detail)
        ()
    in
    let sched =
      {
        rng;
        base_seed = seed;
        cfg;
        replicas =
          Array.init cfg.n (fun i ->
              R.create ~cfg ~id:i ~seed:(seed + i) ~obs ~watchdog:wd ());
        down = Array.make cfg.n false;
        stores;
        reads;
        armed = Array.make cfg.n false;
        nem = nemesis;
        channels = Hashtbl.create 32;
        timers = [];
        vnow = 0.0;
        skew = Array.make cfg.n 0.0;
        replies = [];
        delivered = 0;
        timer_fires = 0;
        nstep = 0;
        mode;
        plan_rev = [];
        wire;
        upgrades_tbl;
        wire_errors = [];
        oracle = Hashtbl.create 64;
        committed_ids = Hashtbl.create 64;
        reply_times = Hashtbl.create 32;
        durability = [];
        crashes = 0;
        shed = 0;
        obs;
        wd;
      }
    in
    Array.iteri (fun i r -> exec_step sched i (R.bootstrap r)) sched.replicas;
    (* Clients are closed-loop: each client's requests carry increasing
       sequence numbers and the next is only injected after the previous
       one was answered (deduplication assumes exactly this). Injection
       and retransmission points are scheduling choices, and the requests
       travel through the same schedulable channels as protocol messages,
       so the nemesis can duplicate and reorder them too. *)
    let per_client : (int, request Queue.t) Hashtbl.t = Hashtbl.create 8 in
    let seq_counters : (int, int) Hashtbl.t = Hashtbl.create 8 in
    (* Stale-read oracle bookkeeping: every request's payload by id, and
       for each read the highest instance the group had committed when the
       read was first issued (its visibility watermark). *)
    let payloads : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
    let rtypes : (int * int, rtype) Hashtbl.t = Hashtbl.create 16 in
    let read_marks : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
    (* Admission oracles: virtual time of each request's first injection. *)
    let issue_times : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
    let oracle_max () = Hashtbl.fold (fun i _ m -> max i m) sched.oracle 0 in
    List.iter
      (fun (client, rtype, payload) ->
        let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt seq_counters client) in
        Hashtbl.replace seq_counters client seq;
        Hashtbl.replace payloads (client, seq) payload;
        Hashtbl.replace rtypes (client, seq) rtype;
        let id =
          Grid_util.Ids.Request_id.make
            ~client:(Grid_util.Ids.Client_id.of_int client)
            ~seq
        in
        let q =
          match Hashtbl.find_opt per_client client with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace per_client client q;
            q
        in
        Queue.add { id; rtype; payload; trace = no_trace } q)
      requests;
    let absorb_replies () =
      List.iter
        (fun (r : reply) ->
          match Hashtbl.find_opt per_client (Grid_util.Ids.Client_id.to_int r.req.client) with
          | Some q when not (Queue.is_empty q) ->
            let head = Queue.peek q in
            if head.id.seq = r.req.seq then ignore (Queue.take q)
          | _ -> ())
        sched.replies
    in
    let pending_count () =
      absorb_replies ();
      Hashtbl.fold (fun _ q acc -> acc + Queue.length q) per_client 0
    in
    let inject () =
      absorb_replies ();
      let heads =
        Hashtbl.fold
          (fun _ q acc -> if Queue.is_empty q then acc else Queue.peek q :: acc)
          per_client []
      in
      match heads with
      | [] -> false
      | _ ->
        let r = Rng.pick_list sched.rng heads in
        let key = (Grid_util.Ids.Client_id.to_int r.id.client, r.id.seq) in
        if not (Hashtbl.mem issue_times key) then
          Hashtbl.replace issue_times key sched.vnow;
        (* The watermark is set at the read's first injection; later
           retransmissions of the same pending request don't move it. *)
        if r.rtype = Read && not (Hashtbl.mem read_marks key) then begin
          refresh_oracle sched;
          Hashtbl.replace read_marks key (oracle_max ())
        end;
        for i = 0 to cfg.n - 1 do
          enqueue sched ~src:(client_node r.id.client) ~dst:i (Client_req r)
        done;
        true
    in
    for _ = 1 to steps do
      sched.nstep <- sched.nstep + 1;
      if pending_count () > 0 && Rng.int sched.rng 10 = 0 then ignore (inject ())
      else ignore (step sched)
    done;
    (* Drain: the fault dice stop, everyone is disarmed and recovered,
       and we keep injecting unanswered requests and scheduling until all
       are answered or the budget runs out. A replay keeps reading its
       plan, so a scripted upgrade recorded here replays too. *)
    sched.nem <- no_faults;
    Array.fill sched.armed 0 cfg.n false;
    for i = 0 to cfg.n - 1 do
      if sched.down.(i) then revive sched i
    done;
    let budget = ref (steps * 10) in
    while !budget > 0 && pending_count () > 0 do
      decr budget;
      sched.nstep <- sched.nstep + 1;
      if Rng.int sched.rng 20 = 0 then ignore (inject ())
      else ignore (step sched)
    done;
    let all_replied = pending_count () = 0 in
    refresh_oracle sched;
    (* The first reply each (client, seq) saw: what the client acted on. *)
    let first : (int * int, reply) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (r : reply) ->
        let key = (Grid_util.Ids.Client_id.to_int r.req.client, r.req.seq) in
        if not (Hashtbl.mem first key) then Hashtbl.replace first key r)
      (List.rev sched.replies);
    (* Stale-read oracle: the first reply a client saw for each read must
       equal that read evaluated on some committed state at or after the
       read's watermark — i.e. the read reflects every write committed
       before it was issued. Sound for deterministic read results (all
       built-in services); the leased fast path must not weaken this. *)
    let stale_reads =
      let max_i = oracle_max () in
      let read_rng = Rng.of_int seed in
      let result_on st op =
        S.encode_result (S.apply ~rng:read_rng ~now:sched.vnow st op).S.result
      in
      Hashtbl.fold
        (fun ((client, seq) as key) w acc ->
          match Hashtbl.find_opt first key with
          | None -> acc
          | Some r when r.status <> Ok -> acc
          | Some r ->
            let op = S.decode_op (Hashtbl.find payloads key) in
            let matches i =
              if i = 0 then String.equal r.payload (result_on (S.initial ()) op)
              else
                match Hashtbl.find_opt sched.oracle i with
                | None -> false
                | Some (_, st) -> String.equal r.payload (result_on (S.decode_state st) op)
            in
            let ok = ref false in
            for i = w to max_i do
              if (not !ok) && matches i then ok := true
            done;
            if !ok then acc
            else
              Printf.sprintf
                "client %d seq %d: read reply matches no committed state at or \
                 after its watermark (instance %d)"
                client seq w
              :: acc)
        read_marks []
      |> List.sort compare
    in
    (* Admitted-loss oracle: a write (or txn commit) acknowledged [Ok]
       was admitted past the shedding gate and promised durable — it must
       appear in some committed instance of the union oracle. A shed
       request never gets an [Ok], so overload cannot mask a loss. *)
    let lost_admitted =
      Hashtbl.fold
        (fun ((client, seq) as key) (r : reply) acc ->
          let is_write =
            match Hashtbl.find_opt rtypes key with
            | Some (Write | Txn_commit _) -> true
            | _ -> false
          in
          if is_write && r.status = Ok && not (Hashtbl.mem sched.committed_ids key)
          then
            Printf.sprintf
              "client %d seq %d: write acknowledged Ok but never observed \
               committed by any replica"
              client seq
            :: acc
          else acc)
        first []
      |> List.sort compare
    in
    (* Bounded-admitted-latency oracle input: first-injection to first
       final reply, per completed request, in completion order. *)
    let admitted_latencies =
      Hashtbl.fold
        (fun key done_at acc ->
          match Hashtbl.find_opt issue_times key with
          | Some issued -> (done_at, done_at -. issued) :: acc
          | None -> acc)
        sched.reply_times []
      |> List.sort compare
      |> List.map snd
      |> Array.of_list
    in
    let histories = Array.map R.committed_updates sched.replicas in
    let plan = List.rev sched.plan_rev in
    let count p = List.length (List.filter p plan) in
    {
      replies = List.rev sched.replies;
      violations = Agreement.check histories;
      durability = List.rev sched.durability;
      stale_reads;
      lost_admitted;
      admitted_latencies;
      committed = Array.map R.commit_point sched.replicas;
      delivered = sched.delivered;
      timer_fires = sched.timer_fires;
      all_replied;
      plan;
      crashes = sched.crashes;
      torn_persists = count (function Tear_at _ -> true | _ -> false);
      duplicated = count (function Duplicate_at _ -> true | _ -> false);
      reordered = count (function Reorder_at _ -> true | _ -> false);
      drifted = count (function Drift_at _ -> true | _ -> false);
      upgraded = count (function Upgrade_at _ -> true | _ -> false);
      shed = sched.shed;
      wire_errors = List.rev sched.wire_errors;
      watchdog_violations = Grid_obs.Watchdog.violations sched.wd;
      watchdog_detail = List.rev !wd_detail;
    }
end
