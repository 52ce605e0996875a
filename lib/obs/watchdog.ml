(* Online invariant watchdogs: the offline stress oracles (duplicate
   commit, lost acknowledged write, stale read, lease mutual exclusion)
   recast as cheap runtime checkers that run inside the replica on every
   commit/reply instead of post-hoc over a recorded outcome.

   A [t] is the shared sink for one process/runtime: it owns the
   violation counters (optionally registered in a [Metrics.t] so they
   reach the Prometheus exposition as [grid_watchdog_*_total]) and the
   cross-replica lease view. Each replica incarnation gets its own
   [monitor] holding the per-replica commit table; a monitor dies with
   its incarnation and is re-seeded from storage on recovery, so a
   legitimately re-proposed request after a torn persist never counts as
   a duplicate.

   Every check is a single branch when the sink is disabled. This module
   stays independent of [grid_paxos]: it sees only ints, floats and
   strings. *)

type check = Dup_commit | Lost_ack | Stale_read | Lease_conflict

let check_name = function
  | Dup_commit -> "dup_commit"
  | Lost_ack -> "lost_ack"
  | Stale_read -> "stale_read"
  | Lease_conflict -> "lease_conflict"

exception Violation of string

type counters = {
  mutable total : int;
  mutable dup_commits : int;
  mutable lost_acks : int;
  mutable stale_reads : int;
  mutable lease_conflicts : int;
}

type t = {
  enabled : bool;
  fail_stop : bool;
  counts : counters;
  on_violation : check:string -> detail:string -> unit;
  (* the cross-replica lease view, per replica group (shards lease
     independently): last claimed holder and the local time its lease
     runs out (on the holder's clock) *)
  leases : (string, string * float) Hashtbl.t;
  m_total : Metrics.counter option;
  m_dup : Metrics.counter option;
  m_lost : Metrics.counter option;
  m_stale : Metrics.counter option;
  m_lease : Metrics.counter option;
}

let create ?(fail_stop = false) ?metrics ?(on_violation = fun ~check:_ ~detail:_ -> ())
    () =
  let reg name help =
    Option.map (fun m -> Metrics.counter m name ~help) metrics
  in
  {
    enabled = true;
    fail_stop;
    counts =
      { total = 0; dup_commits = 0; lost_acks = 0; stale_reads = 0; lease_conflicts = 0 };
    on_violation;
    leases = Hashtbl.create 4;
    m_total =
      reg "grid_watchdog_violations_total"
        "Runtime invariant violations caught by the watchdogs";
    m_dup =
      reg "grid_watchdog_dup_commit_total"
        "Requests observed committing at two different instances";
    m_lost =
      reg "grid_watchdog_lost_ack_total"
        "Ok replies sent for writes with no recorded commit";
    m_stale =
      reg "grid_watchdog_stale_read_total"
        "Reads answered from a state older than their admission watermark";
    m_lease =
      reg "grid_watchdog_lease_conflict_total"
        "Lease-local reads served while another replica's lease was live";
  }

let disabled =
  let t = create () in
  { t with enabled = false }

let violations t = t.counts.total
let dup_commits t = t.counts.dup_commits
let lost_acks t = t.counts.lost_acks
let stale_reads t = t.counts.stale_reads
let lease_conflicts t = t.counts.lease_conflicts

let reset t =
  t.counts.total <- 0;
  t.counts.dup_commits <- 0;
  t.counts.lost_acks <- 0;
  t.counts.stale_reads <- 0;
  t.counts.lease_conflicts <- 0;
  Hashtbl.reset t.leases

let fire t which detail =
  t.counts.total <- t.counts.total + 1;
  (match t.m_total with Some c -> Metrics.inc c | None -> ());
  let bump field handle =
    field ();
    match handle with Some c -> Metrics.inc c | None -> ()
  in
  (match which with
  | Dup_commit ->
    bump (fun () -> t.counts.dup_commits <- t.counts.dup_commits + 1) t.m_dup
  | Lost_ack -> bump (fun () -> t.counts.lost_acks <- t.counts.lost_acks + 1) t.m_lost
  | Stale_read ->
    bump (fun () -> t.counts.stale_reads <- t.counts.stale_reads + 1) t.m_stale
  | Lease_conflict ->
    bump
      (fun () -> t.counts.lease_conflicts <- t.counts.lease_conflicts + 1)
      t.m_lease);
  t.on_violation ~check:(check_name which) ~detail;
  if t.fail_stop then
    raise (Violation (Printf.sprintf "watchdog[%s]: %s" (check_name which) detail))

(* ------------------------------------------------------------------ *)
(* Per-replica monitor                                                  *)

(* The commit table remembers the last [capacity] distinct (client, seq)
   keys with the instance each committed at, forgetting the oldest key
   first. It runs on every commit in every replica, so it is laid out for
   what a replica sees: each client's seqs commit in ascending order,
   with gaps wherever the client's reads or failed calls used a seq.

   - Per-client windows. A client's window is one int array
     [| head; len; seq; instance; seq; instance; ... |]: its [len]
     remembered keys as ascending (seq, instance) pairs in a circular
     part starting at pair [head]. A seq above the client's last is
     appended; lookup is a binary search, with the last pair checked
     first. Only ascending seqs join a window, so its pairs are in
     insertion order and the oldest is at [head]. A window starts at one
     pair and is re-cut to [fit len] pairs (an eighth to spare) when full
     or under three quarters full, so past a few keys it costs at most
     8/3 words per key whatever the gaps between seqs, and an append
     that fits allocates nothing.
   - The eviction ring. One int per remembered key in insertion order,
     naming the client whose window holds it (or [side_mark]); it doubles
     up to [capacity]. Evicting the front entry drops that window's
     oldest pair, so the oldest distinct key goes first, exactly as with a
     FIFO of keys.
   - The side table: boxed keys with their own FIFO, for a seq at or
     below its client's last. A 2PC decision commits the branch's op
     requests after the same client's later prepare has committed, so
     such keys do arrive.

   Instances are Paxos log positions, hence never -1. *)

module Itbl = Hashtbl.Make (Int)

let absent = -1
let side_mark = min_int (* a ring entry naming the side FIFO's front *)

type monitor = {
  sink : t;
  actor : string;
  group : string;
      (* which lease domain this replica belongs to: the shard prefix of
         the actor label ("s1/r0" -> "s1/", plain "r0" -> ""), since
         every group leases independently *)
  capacity : int;
  windows : int array Itbl.t;  (* client -> [| head; len; seq; instance; ... |] *)
  mutable ring : int array;
  mutable ring_head : int;
  mutable ring_len : int;  (* = remembered keys *)
  side : (int * int, int) Hashtbl.t;  (* (client, seq) -> instance *)
  side_order : (int * int) Queue.t;
}

let monitor ?(capacity = 65536) sink ~actor =
  let group =
    match String.rindex_opt actor '/' with
    | Some i -> String.sub actor 0 (i + 1)
    | None -> ""
  in
  (* a bound below one behaves as one: the newest key is always kept *)
  let capacity = max 1 capacity in
  {
    sink;
    actor;
    group;
    capacity;
    windows = Itbl.create 64;
    ring = Array.make (min capacity 16) 0;
    ring_head = 0;
    ring_len = 0;
    side = Hashtbl.create 16;
    side_order = Queue.create ();
  }

let pairs w = (Array.length w - 2) / 2

(* Index in [w] of the seq of its [k]-th oldest pair. *)
let pair w k =
  let i = w.(0) + k and n = pairs w in
  2 + (2 * if i >= n then i - n else i)

(* The pairs a window re-cut for [len] keys gets. *)
let fit len = len + (len / 8) + 1

(* Index in [w] of the pair holding [seq], or -1. *)
let window_pos w seq =
  let last = pair w (w.(1) - 1) in
  if seq >= w.(last) then if seq = w.(last) then last else -1
  else begin
    (* the pair is among the oldest [len - 1], if anywhere *)
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let p = pair w mid in
        if w.(p) = seq then p else if w.(p) < seq then search (mid + 1) hi else search lo mid
    in
    search 0 (w.(1) - 1)
  end

(* [w]'s pairs moved, oldest first, into a window of [cap] pairs. *)
let relocate w cap =
  let w' = Array.make (2 + (2 * cap)) 0 in
  w'.(1) <- w.(1);
  for k = 0 to w.(1) - 1 do
    let p = pair w k in
    w'.(2 + (2 * k)) <- w.(p);
    w'.(3 + (2 * k)) <- w.(p + 1)
  done;
  w'

(* The instance remembered for the key, or [absent]. *)
let find m ~client ~seq =
  let i =
    match Itbl.find m.windows client with
    | w ->
      let p = window_pos w seq in
      if p < 0 then absent else w.(p + 1)
    | exception Not_found -> absent
  in
  if i <> absent || Hashtbl.length m.side = 0 then i
  else Option.value (Hashtbl.find_opt m.side (client, seq)) ~default:absent

(* Append a key whose seq is above its client's last. *)
let window_add m ~client ~seq ~instance =
  client <> side_mark
  &&
  match Itbl.find m.windows client with
  | exception Not_found ->
    Itbl.add m.windows client [| 0; 1; seq; instance |];
    true
  | w ->
    let len = w.(1) in
    if seq <= w.(pair w (len - 1)) then false
    else begin
      let w =
        if 2 + (2 * len) < Array.length w then w
        else begin
          let w' = relocate w (fit len) in
          Itbl.replace m.windows client w';
          w'
        end
      in
      let p = pair w len in
      w.(p) <- seq;
      w.(p + 1) <- instance;
      w.(1) <- len + 1;
      true
    end

let push m entry =
  let n = Array.length m.ring in
  if m.ring_len = n then begin
    (* only reached below capacity: [remember] evicts at capacity first *)
    let r = Array.make (min m.capacity (2 * n)) 0 in
    Array.blit m.ring m.ring_head r 0 (n - m.ring_head);
    Array.blit m.ring 0 r (n - m.ring_head) m.ring_head;
    m.ring <- r;
    m.ring_head <- 0
  end;
  let n = Array.length m.ring and i = m.ring_head + m.ring_len in
  m.ring.(if i >= n then i - n else i) <- entry;
  m.ring_len <- m.ring_len + 1

let evict_oldest m =
  let c = m.ring.(m.ring_head) in
  m.ring_head <- (m.ring_head + 1) mod Array.length m.ring;
  m.ring_len <- m.ring_len - 1;
  if c = side_mark then Hashtbl.remove m.side (Queue.take m.side_order)
  else begin
    let w = Itbl.find m.windows c in
    let len = w.(1) - 1 in
    if len = 0 then Itbl.remove m.windows c
    else begin
      let cap = pairs w in
      w.(0) <- (if w.(0) + 1 = cap then 0 else w.(0) + 1);
      w.(1) <- len;
      if 4 * len < 3 * cap && fit len < cap then Itbl.replace m.windows c (relocate w (fit len))
    end
  end

(* Store the key's instance, given what [find] returned for it. *)
let remember m ~client ~seq ~instance ~prev =
  if prev = absent then begin
    if m.ring_len >= m.capacity then evict_oldest m;
    if window_add m ~client ~seq ~instance then push m client
    else begin
      let key = (client, seq) in
      Hashtbl.replace m.side key instance;
      Queue.add key m.side_order;
      push m side_mark
    end
  end
  else if prev <> instance then
    (* a re-record at another instance: the rare violation path *)
    match Itbl.find_opt m.windows client with
    | Some w when window_pos w seq >= 0 -> w.(window_pos w seq + 1) <- instance
    | _ -> Hashtbl.replace m.side (client, seq) instance

(* Seeding (log replay at recovery, or a known-good commit fed by a
   driver) records without checking: these commits were already
   validated in a previous incarnation. *)
let seed_commit m ~client ~seq ~instance =
  if m.sink.enabled then remember m ~client ~seq ~instance ~prev:(find m ~client ~seq)

let record_commit m ~client ~seq ~instance =
  if m.sink.enabled then begin
    let prev = find m ~client ~seq in
    if prev <> absent && prev <> instance then
      fire m.sink Dup_commit
        (Printf.sprintf "%s: request c%d#%d committed at instance %d and again at %d"
           m.actor client seq prev instance);
    remember m ~client ~seq ~instance ~prev
  end

let write_acked m ~client ~seq =
  if m.sink.enabled && find m ~client ~seq = absent then
    fire m.sink Lost_ack
      (Printf.sprintf "%s: Ok reply for write c%d#%d with no recorded commit" m.actor
         client seq)

let read_replied m ~client ~seq ~watermark ~exec_point =
  if m.sink.enabled && exec_point < watermark then
    fire m.sink Stale_read
      (Printf.sprintf
         "%s: read c%d#%d answered at instance %d below its admission watermark %d"
         m.actor client seq exec_point watermark)

(* Lease mutual exclusion: a replica claiming the lease (serving a
   lease-local read) while another replica's claim is still live — with
   [slack_ms] of allowance for the configured clock-skew bound — means
   two leaders both believed they could answer reads locally. *)
let lease_claimed m ~now ~until ~slack_ms =
  if m.sink.enabled then begin
    let s = m.sink in
    let prev = Hashtbl.find_opt s.leases m.group in
    (match prev with
    | Some (holder, h_until) when holder <> m.actor && now +. slack_ms < h_until ->
      fire s Lease_conflict
        (Printf.sprintf
           "%s: lease claimed at %.3f while %s holds one until %.3f (slack %.3f ms)"
           m.actor now holder h_until slack_ms)
    | _ -> ());
    (* A holder's window only extends (reordered claims must not shrink
       it); a change of holder starts a fresh window. *)
    let carry =
      match prev with
      | Some (holder, u) when holder = m.actor -> Float.max until u
      | _ -> until
    in
    Hashtbl.replace s.leases m.group (m.actor, carry)
  end
