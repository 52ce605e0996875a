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

type counters = {
  mutable total : int;
  mutable dup_commits : int;
  mutable lost_acks : int;
  mutable stale_reads : int;
  mutable lease_conflicts : int;
}

type t = {
  enabled : bool;
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

let create ?metrics ?(on_violation = fun ~check:_ ~detail:_ -> ()) () =
  let reg name help =
    Option.map (fun m -> Metrics.counter m name ~help) metrics
  in
  {
    enabled = true;
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
  t.on_violation ~check:(check_name which) ~detail

(* ------------------------------------------------------------------ *)
(* Per-replica monitor                                                  *)

(* The commit table remembers the last [capacity] distinct (client, seq)
   keys with the instance each committed at, forgetting the oldest key
   first. It runs on every commit in every replica, so it is laid out for
   what a replica sees: each client's seqs commit in ascending order,
   with gaps wherever the client's reads or failed calls used a seq.
   No block it allocates is over 256 words, so every one starts in the
   minor heap and none is copied whole as the table grows: OCaml
   allocates larger blocks straight in the major heap, whose memory the
   allocator is slow to hand back.

   - Per-client segments. A segment is one int array
     [| head; len; seq_base; inst_base; key; key; ... |]: [len]
     remembered keys, ascending by seq, in a circular part starting at
     key [head]. A key is one int: its seq's offset from [seq_base] in
     the high bits and its instance's offset from [inst_base] in the low
     [ibits]. A client's keys live in its newest segment and, once that
     has filled [seg_keys] keys, in a FIFO of its older segments, oldest
     first. Only ascending seqs join, so a client's keys across its
     segments are in insertion order and its oldest key is the front of
     its oldest segment.
   - The newest segment. A seq above the client's last is appended; a
     lookup checks the last key, then bisects. The first segment starts
     at one key and is re-cut to [fit len] keys (an eighth to spare, at
     most [seg_keys]) when full or, while it is the client's only one,
     under three quarters full; so a small client costs one small array.
     When it is full at [seg_keys] keys it joins the older FIFO and a
     fresh full-size segment starts at the next key.
   - Older segments are not appended to or re-cut. A lookup walks them
     only for a seq below the newest segment's seq base, which is then
     its oldest key: it is not evicted from while older segments exist.
     Eviction drops their front key and frees a segment once it is
     empty, so a client wastes at most one segment's spare slots there.
     A freed segment is kept (up to [max_spares]) for the next fresh
     one, so a table at capacity allocates nothing.
   - Re-basing. Every segment has its own bases; a re-cut of the newest
     moves them to its oldest seq and lowest instance. An append whose
     offsets do not fit re-cuts it first; a key that still does not fit
     (its seq 2^31 or more above the segment's oldest, or instances 2^31
     apart in one segment) takes the side table. A re-record at an
     instance that does not fit keeps its key in its segment with the
     instance field [escaped], and the instance in the side table.
   - The eviction ring. One int per remembered key in insertion order,
     naming the client whose segments hold it (or [side_mark]), kept in a
     FIFO of [ring_chunk]-slot chunks: a chunk is added when the newest
     fills and dropped when eviction has passed its last slot, kept for
     the next one. The ring is never copied and holds at most two partly
     used chunks.
     Evicting the front entry drops that client's oldest key, so the
     oldest distinct key goes first, exactly as with a FIFO of keys.
   - The side table: boxed keys with their own FIFO, for a seq at or
     below its client's last. A 2PC decision commits the branch's op
     requests after the same client's later prepare has committed, so
     such keys do arrive.

   Instances are Paxos log positions, hence never -1. *)

(* Client-keyed tables, hashed inline: three lookups run on every
   commit, and the generic [Hashtbl.hash] is a C call. The multiply and
   fold spread nearby ids over the low bits the table indexes by. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)

(* A FIFO of blocks with its oldest one field away: [first] ([none] when
   empty), then [rest], oldest first. *)
type fifo = { mutable first : int array; rest : int array Queue.t }

let none = [||]
let fifo () = { first = none; rest = Queue.create () }
let fifo_add f b = if f.first == none then f.first <- b else Queue.add b f.rest
let fifo_drop f = f.first <- (if Queue.is_empty f.rest then none else Queue.take f.rest)

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
  windows : int array Itbl.t;  (* client -> its newest segment *)
  older : fifo Itbl.t;
      (* client -> its older segments, oldest first; only clients that
         filled a segment have an entry *)
  spares : int array array;
  mutable n_spares : int;
      (* older segments freed, the first [n_spares] of [spares]: fresh
         segments reuse them *)
  ring : fifo;  (* the eviction ring's chunks *)
  mutable spare_chunk : int array;  (* the last chunk dropped, or [none] *)
  mutable ring_tail : int array;  (* the newest chunk *)
  mutable tail_len : int;  (* entries written to it *)
  mutable ring_head : int;  (* the oldest entry's slot in the oldest chunk *)
  mutable ring_len : int;  (* = remembered keys *)
  side : (int * int, int) Hashtbl.t;  (* (client, seq) -> instance *)
  side_order : (int * int) Queue.t;
}

(* Block sizes: a segment and a ring chunk are 256 words each, the most
   the minor heap takes. *)
let header = 4
let seg_keys = 256 - header
let ring_chunk = 256
let max_spares = 8

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
    older = Itbl.create 16;
    spares = Array.make max_spares none;
    n_spares = 0;
    ring = fifo ();
    spare_chunk = none;
    ring_tail = none;
    tail_len = ring_chunk;
    ring_head = 0;
    ring_len = 0;
    side = Hashtbl.create 16;
    side_order = Queue.create ();
  }

(* Key packing: both offsets are below [span]; an instance field of
   [escaped] sends the lookup to the side table. *)
let ibits = 31
let span = 1 lsl ibits
let escaped = span - 1

let keys w = Array.length w - header

(* Index in [w] of its [k]-th oldest key. *)
let slot w k =
  let i = w.(0) + k and n = keys w in
  header + if i >= n then i - n else i

let seq_at w p = w.(2) + (w.(p) lsr ibits)
let field w p = w.(p) land escaped

(* [x - base] when that lies in [0, lim), else -1 (also on overflow). *)
let offset x base lim =
  let d = x - base in
  if x >= base && d >= 0 && d < lim then d else -1

(* The key packing [seq] and [instance] in [w], or -1 if they do not fit. *)
let pack w ~seq ~instance =
  let s = offset seq w.(2) span and i = offset instance w.(3) escaped in
  if s < 0 || i < 0 then -1 else (s lsl ibits) lor i

(* The keys a newest segment re-cut for [len] keys has room for. *)
let fit len = min seg_keys (len + (len / 8) + 1)

(* Index in [w] of the key holding [seq]; else -2 if [seq] is below
   [w]'s seq base, -1 if not. *)
let window_pos w seq =
  let d = offset seq w.(2) span in
  let last = slot w (w.(1) - 1) in
  if d < 0 then if seq < w.(2) then -2 else -1
  else if d >= w.(last) lsr ibits then if d = w.(last) lsr ibits then last else -1
  else begin
    (* the key is among the oldest [len - 1], if anywhere *)
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let p = slot w mid in
        let s = w.(p) lsr ibits in
        if s = d then p else if s < d then search (mid + 1) hi else search lo mid
    in
    search 0 (w.(1) - 1)
  end

(* [w]'s keys moved, oldest first, into a segment of [cap] keys re-based
   on its oldest seq and its lowest instance, lowered to [instance] if
   every instance then still fits. *)
let relocate ?(instance = max_int) w cap =
  let len = w.(1) in
  let lo = ref max_int and hi = ref 0 in
  for k = 0 to len - 1 do
    let f = field w (slot w k) in
    if f <> escaped then begin
      lo := min !lo (w.(3) + f);
      hi := max !hi (w.(3) + f)
    end
  done;
  let base = if max !hi instance - instance < escaped then min !lo instance else !lo in
  let w' = Array.make (header + cap) 0 in
  let oldest = w.(slot w 0) lsr ibits in
  w'.(1) <- len;
  w'.(2) <- w.(2) + oldest;
  w'.(3) <- base;
  for k = 0 to len - 1 do
    let p = slot w k in
    let f = field w p in
    w'.(header + k) <-
      (((w.(p) lsr ibits) - oldest) lsl ibits)
      lor if f = escaped then escaped else w.(3) + f - base
  done;
  w'

(* The older segment of [client] whose keys may hold [seq], or [none]:
   the newest one that starts at or below it. *)
let older_segment m ~client ~seq =
  match Itbl.find m.older client with
  | exception Not_found -> none
  | q ->
    let pick s o = if seq >= seq_at o (slot o 0) then o else s in
    Queue.fold pick (pick none q.first) q.rest

(* The segment of [client] whose keys may hold [seq], or [none]. A
   client with older segments has not been evicted from since its newest
   one started, so that one's seq base is its oldest key: only a seq
   below the base can be in an older segment. *)
let segment m ~client ~seq =
  match Itbl.find m.windows client with
  | exception Not_found -> none
  | w ->
    if window_pos w seq <> -2 || Itbl.length m.older = 0 then w
    else older_segment m ~client ~seq

let instance_at m w p ~client ~seq =
  if field w p = escaped then Hashtbl.find m.side (client, seq) else w.(3) + field w p

(* The instance remembered for the key, or [absent]: {!segment} with the
   newest segment's lookup done once. *)
let find m ~client ~seq =
  let i =
    match Itbl.find m.windows client with
    | exception Not_found -> absent
    | w ->
      let p = window_pos w seq in
      if p >= 0 then instance_at m w p ~client ~seq
      else if p = -1 || Itbl.length m.older = 0 then absent
      else begin
        let o = older_segment m ~client ~seq in
        let p = if o == none then -1 else window_pos o seq in
        if p < 0 then absent else instance_at m o p ~client ~seq
      end
  in
  if i <> absent || Hashtbl.length m.side = 0 then i
  else Option.value (Hashtbl.find_opt m.side (client, seq)) ~default:absent

(* A full-size segment: a spare, or a new one. Its key slots are not
   cleared: only the first [len] are ever read. *)
let take_spare m =
  if m.n_spares = 0 then Array.make (header + seg_keys) 0
  else begin
    m.n_spares <- m.n_spares - 1;
    let w = m.spares.(m.n_spares) in
    m.spares.(m.n_spares) <- none;
    w
  end

(* Store [key], packed for [w], as [w]'s newest; [w] has room. *)
let append w key =
  let len = w.(1) in
  w.(slot w len) <- key;
  w.(1) <- len + 1

(* Append a key whose seq is above its client's last. *)
let window_add m ~client ~seq ~instance =
  client <> side_mark
  &&
  match Itbl.find m.windows client with
  | exception Not_found ->
    Itbl.add m.windows client [| 0; 1; seq; instance; 0 |];
    true
  | w ->
    let len = w.(1) in
    if seq <= seq_at w (slot w (len - 1)) then false
    else begin
      let key = if len < keys w then pack w ~seq ~instance else -1 in
      if key >= 0 then begin
        append w key;
        true
      end
      else if len = seg_keys then begin
        (* the newest segment is full: it joins the older ones, and a
           fresh one based on this key starts *)
        (match Itbl.find m.older client with
        | q -> fifo_add q w
        | exception Not_found ->
          let q = fifo () in
          fifo_add q w;
          Itbl.add m.older client q);
        let w' = take_spare m in
        w'.(0) <- 0;
        w'.(1) <- 1;
        w'.(2) <- seq;
        w'.(3) <- instance;
        w'.(header) <- 0;
        Itbl.replace m.windows client w';
        true
      end
      else if offset seq (seq_at w (slot w 0)) span < 0 then
        false (* no re-base brings this seq within reach *)
      else begin
        let w' = relocate ~instance w (fit len) in
        Itbl.replace m.windows client w';
        let key = pack w' ~seq ~instance in
        key >= 0
        && begin
          append w' key;
          true
        end
      end
    end

let push m entry =
  if m.tail_len = ring_chunk then begin
    let c = if m.spare_chunk == none then Array.make ring_chunk 0 else m.spare_chunk in
    m.spare_chunk <- none;
    fifo_add m.ring c;
    m.ring_tail <- c;
    m.tail_len <- 0
  end;
  m.ring_tail.(m.tail_len) <- entry;
  m.tail_len <- m.tail_len + 1;
  m.ring_len <- m.ring_len + 1

(* Drop the oldest key of segment [w]; whether [w] is left empty. *)
let drop_front m ~client w =
  let p = slot w 0 in
  if field w p = escaped then Hashtbl.remove m.side (client, seq_at w p);
  w.(0) <- (if w.(0) + 1 = keys w then 0 else w.(0) + 1);
  w.(1) <- w.(1) - 1;
  w.(1) = 0

(* The oldest key of a client with no older segments. *)
let evict_newest m c =
  let w = Itbl.find m.windows c in
  if drop_front m ~client:c w then Itbl.remove m.windows c
  else begin
    let len = w.(1) and cap = keys w in
    if 4 * len < 3 * cap && fit len < cap then Itbl.replace m.windows c (relocate w (fit len))
  end

let evict_oldest m =
  let front = m.ring.first in
  let c = front.(m.ring_head) in
  m.ring_head <- m.ring_head + 1;
  if m.ring_head = ring_chunk then begin
    m.spare_chunk <- front;
    fifo_drop m.ring;
    m.ring_head <- 0
  end;
  m.ring_len <- m.ring_len - 1;
  if c = side_mark then Hashtbl.remove m.side (Queue.take m.side_order)
  else if Itbl.length m.older = 0 then evict_newest m c
  else
    match Itbl.find m.older c with
    | exception Not_found -> evict_newest m c
    | q ->
      let w = q.first in
      if drop_front m ~client:c w then begin
        fifo_drop q;
        if m.n_spares < max_spares then begin
          m.spares.(m.n_spares) <- w;
          m.n_spares <- m.n_spares + 1
        end;
        if q.first == none then Itbl.remove m.older c
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
  else if prev <> instance then begin
    (* a re-record at another instance: the rare violation path *)
    let w = segment m ~client ~seq in
    let p = if w == none then -1 else window_pos w seq in
    if p < 0 then Hashtbl.replace m.side (client, seq) instance
    else begin
      let i = offset instance w.(3) escaped in
      if i >= 0 then Hashtbl.remove m.side (client, seq)
      else Hashtbl.replace m.side (client, seq) instance;
      w.(p) <- w.(p) - field w p + if i >= 0 then i else escaped
    end
  end

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
let enabled m = m.sink.enabled

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
