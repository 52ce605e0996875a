(* Unit tests for the online invariant watchdogs: each check fires on
   its planted violation and stays silent on legitimate histories —
   recovery replay, retransmitted commits at the same instance, lease
   handover after expiry, and independent leases across shard groups. *)

module Watchdog = Grid_obs.Watchdog
module Metrics = Grid_obs.Metrics

let test_dup_commit () =
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:4;
  (* A retransmitted learn of the same instance is not a duplicate. *)
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:4;
  Alcotest.(check int) "same instance re-learned" 0 (Watchdog.violations t);
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:9;
  Alcotest.(check int) "different instance fires" 1 (Watchdog.dup_commits t);
  Alcotest.(check int) "total counted" 1 (Watchdog.violations t)

let test_seed_commit_is_unchecked () =
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  (* Recovery replay seeds the table without flagging... *)
  Watchdog.seed_commit m ~client:2 ~seq:3 ~instance:7;
  Watchdog.record_commit m ~client:2 ~seq:3 ~instance:7;
  Alcotest.(check int) "replayed commit silent" 0 (Watchdog.violations t);
  (* ...but still arms the dup check for a later conflicting commit. *)
  Watchdog.record_commit m ~client:2 ~seq:3 ~instance:8;
  Alcotest.(check int) "post-recovery dup caught" 1 (Watchdog.dup_commits t)

let test_lost_ack () =
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.record_commit m ~client:1 ~seq:1 ~instance:0;
  Watchdog.write_acked m ~client:1 ~seq:1;
  Alcotest.(check int) "committed ack silent" 0 (Watchdog.violations t);
  Watchdog.write_acked m ~client:1 ~seq:2;
  Alcotest.(check int) "uncommitted ack fires" 1 (Watchdog.lost_acks t)

let test_stale_read () =
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.read_replied m ~client:1 ~seq:1 ~watermark:5 ~exec_point:5;
  Watchdog.read_replied m ~client:1 ~seq:2 ~watermark:5 ~exec_point:8;
  Alcotest.(check int) "reads at/after watermark silent" 0 (Watchdog.violations t);
  Watchdog.read_replied m ~client:1 ~seq:3 ~watermark:5 ~exec_point:4;
  Alcotest.(check int) "read below watermark fires" 1 (Watchdog.stale_reads t)

let test_lease_mutual_exclusion () =
  let t = Watchdog.create () in
  let r0 = Watchdog.monitor t ~actor:"r0" in
  let r1 = Watchdog.monitor t ~actor:"r1" in
  Watchdog.lease_claimed r0 ~now:0.0 ~until:100.0 ~slack_ms:4.0;
  (* The holder re-claiming inside its own window is fine. *)
  Watchdog.lease_claimed r0 ~now:50.0 ~until:120.0 ~slack_ms:4.0;
  Alcotest.(check int) "holder re-claims" 0 (Watchdog.violations t);
  (* Another replica claiming after expiry (plus slack) is a handover. *)
  Watchdog.lease_claimed r1 ~now:130.0 ~until:200.0 ~slack_ms:4.0;
  Alcotest.(check int) "post-expiry handover" 0 (Watchdog.violations t);
  (* A third claim by r0 while r1's window is live is the violation. *)
  Watchdog.lease_claimed r0 ~now:150.0 ~until:220.0 ~slack_ms:4.0;
  Alcotest.(check int) "overlapping claim fires" 1 (Watchdog.lease_conflicts t)

let test_lease_groups_are_independent () =
  let t = Watchdog.create () in
  let s0 = Watchdog.monitor t ~actor:"s0/r0" in
  let s1 = Watchdog.monitor t ~actor:"s1/r2" in
  (* Two shards lease concurrently: different groups, no conflict. *)
  Watchdog.lease_claimed s0 ~now:0.0 ~until:100.0 ~slack_ms:4.0;
  Watchdog.lease_claimed s1 ~now:1.0 ~until:100.0 ~slack_ms:4.0;
  Alcotest.(check int) "cross-shard leases coexist" 0 (Watchdog.violations t);
  (* Within one shard the exclusion still holds. *)
  let s0' = Watchdog.monitor t ~actor:"s0/r1" in
  Watchdog.lease_claimed s0' ~now:10.0 ~until:100.0 ~slack_ms:4.0;
  Alcotest.(check int) "same-shard overlap fires" 1 (Watchdog.lease_conflicts t)

(* The callback sees each violation already counted. *)
let test_callback_after_counting () =
  let seen = ref [] and sink = ref Watchdog.disabled in
  let t =
    Watchdog.create
      ~on_violation:(fun ~check ~detail:_ ->
        seen := (check, Watchdog.violations !sink) :: !seen)
      ()
  in
  sink := t;
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.write_acked m ~client:9 ~seq:1;
  Alcotest.(check (list (pair string int))) "callback names the counted check"
    [ ("lost_ack", 1) ] !seen;
  Alcotest.(check int) "counted" 1 (Watchdog.violations t)

let test_disabled_and_reset () =
  let m = Watchdog.monitor Watchdog.disabled ~actor:"r0" in
  Watchdog.write_acked m ~client:1 ~seq:1;
  Watchdog.read_replied m ~client:1 ~seq:2 ~watermark:5 ~exec_point:0;
  Alcotest.(check int) "disabled sink is inert" 0
    (Watchdog.violations Watchdog.disabled);
  let t = Watchdog.create () in
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.write_acked m ~client:1 ~seq:1;
  Watchdog.lease_claimed m ~now:0.0 ~until:100.0 ~slack_ms:0.0;
  Alcotest.(check int) "armed" 1 (Watchdog.violations t);
  Watchdog.reset t;
  Alcotest.(check int) "reset zeroes" 0 (Watchdog.violations t);
  (* The lease view was cleared too: a fresh claim is not a conflict. *)
  let m' = Watchdog.monitor t ~actor:"r1" in
  Watchdog.lease_claimed m' ~now:1.0 ~until:50.0 ~slack_ms:0.0;
  Alcotest.(check int) "lease view cleared" 0 (Watchdog.violations t)

let test_metrics_registration () =
  let reg = Metrics.create () in
  let t = Watchdog.create ~metrics:reg () in
  Alcotest.(check bool) "counters registered" true
    (Metrics.mem reg "grid_watchdog_violations_total"
    && Metrics.mem reg "grid_watchdog_stale_read_total");
  let m = Watchdog.monitor t ~actor:"r0" in
  Watchdog.read_replied m ~client:1 ~seq:1 ~watermark:3 ~exec_point:1;
  let text = Metrics.expose reg in
  let contains needle =
    let n = String.length text and k = String.length needle in
    let rec scan i = i + k <= n && (String.sub text i k = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "exposition carries the firing" true
    (contains "grid_watchdog_violations_total 1"
    && contains "grid_watchdog_stale_read_total 1")

(* Reference model of the commit table: a boxed (client, seq) ->
   instance table plus a FIFO of distinct keys, forgetting the oldest key
   once [capacity] are held; the semantics the monitor must keep. *)
module Model = struct
  type t = {
    tbl : (int * int, int) Hashtbl.t;
    order : (int * int) Queue.t;
    capacity : int;
    mutable dups : int;
    mutable lost : int;
  }

  let create capacity =
    { tbl = Hashtbl.create 16; order = Queue.create (); capacity; dups = 0; lost = 0 }

  let remember m key instance =
    if not (Hashtbl.mem m.tbl key) then begin
      if Queue.length m.order >= m.capacity then
        Option.iter (Hashtbl.remove m.tbl) (Queue.take_opt m.order);
      Queue.add key m.order
    end;
    Hashtbl.replace m.tbl key instance

  let record m key instance =
    (match Hashtbl.find_opt m.tbl key with
    | Some i when i <> instance -> m.dups <- m.dups + 1
    | _ -> ());
    remember m key instance

  let ack m key = if not (Hashtbl.mem m.tbl key) then m.lost <- m.lost + 1
end

type kind = Record | Seed | Ack

(* How an operation picks its seq relative to its client's highest seq
   so far: the next one, a little or far ahead (gaps), 2^30 or more or
   2^32 and more ahead (past what a window's seq offsets reach), at or
   just behind it (re-records, and out-of-order commits as when a 2PC
   decision's ops commit after the prepare), or an absolute small seq. *)
type pick = Next | Ahead | Far | Huge | Jump | Behind | Small

type op = { kind : kind; client : int; pick : pick; delta : int; instance : int }

let gen_history =
  let open QCheck2.Gen in
  let kind = frequency [ (6, pure Record); (1, pure Seed); (2, pure Ack) ] in
  let pick =
    frequency
      [
        (6, pure Next);
        (2, pure Ahead);
        (1, pure Far);
        (1, pure Huge);
        (1, pure Jump);
        (4, pure Behind);
        (1, pure Small);
      ]
  in
  (* mostly a few small instances, so re-records collide, plus instances
     at 2^30, 2^32 and max_int, which no one window's offsets span *)
  let instance =
    frequency
      [
        (8, int_bound 3);
        (1, map (fun d -> (1 lsl 30) + d) (int_bound 3));
        (1, map (fun d -> (1 lsl 32) + d) (int_bound 3));
        (1, map (fun d -> max_int - d) (int_bound 3));
      ]
  in
  let op =
    map
      (fun (kind, client, pick, delta, instance) -> { kind; client; pick; delta; instance })
      (tup5 kind (int_bound 3) pick
         (frequency [ (3, int_bound 4); (1, int_bound 40) ])
         instance)
  in
  pair (int_range 1 12) (list_size (int_bound 400) op)

let print_history (capacity, ops) =
  Printf.sprintf "capacity %d: %s" capacity
    (String.concat "; "
       (List.map
          (fun o ->
            Printf.sprintf "%s c%d %s%d @%d"
              (match o.kind with Record -> "record" | Seed -> "seed" | Ack -> "ack")
              o.client
              (match o.pick with
              | Next -> "next"
              | Ahead -> "ahead+"
              | Far -> "far+"
              | Huge -> "huge+"
              | Jump -> "jump+"
              | Behind -> "behind-"
              | Small -> "seq=")
              o.delta o.instance)
          ops))

(* Run a history on a monitor and on the model side by side; whether
   their dup and lost-ack counts agree after every operation. *)
let matches_model (capacity, ops) =
  let t = Watchdog.create () in
  let m = Watchdog.monitor ~capacity t ~actor:"r0" in
  let model = Model.create capacity in
  let hi = Array.make 4 0 in
  List.for_all
    (fun o ->
      let h = hi.(o.client) in
      let seq =
        match o.pick with
        | Next -> h + 1
        | Ahead -> h + 1 + o.delta
        | Far -> h + 1000 * (o.delta + 1)
        | Huge -> h + ((1 lsl 30) * (o.delta + 1))
        | Jump -> h + (1 lsl 32) + o.delta
        | Behind -> h - o.delta
        | Small -> o.delta
      in
      hi.(o.client) <- max h seq;
      let client = o.client and key = (o.client, seq) in
      (match o.kind with
      | Record ->
        Watchdog.record_commit m ~client ~seq ~instance:o.instance;
        Model.record model key o.instance
      | Seed ->
        Watchdog.seed_commit m ~client ~seq ~instance:o.instance;
        Model.remember model key o.instance
      | Ack ->
        Watchdog.write_acked m ~client ~seq;
        Model.ack model key);
      Watchdog.dup_commits t = model.dups && Watchdog.lost_acks t = model.lost)
    ops

let prop_matches_model =
  QCheck2.Test.make ~name:"commit table matches the Hashtbl+Queue model" ~count:2000
    ~print:print_history gen_history matches_model

(* A client's keys fill segments of 252 keys each. These histories
   interleave long in-order runs, which span several segments, with the
   picks above, whose [Behind] reaches back into older segments; the
   capacities, a few segments' worth and rarely a multiple of 252, make
   eviction empty and free older segments and cut inside one. *)
let seg = 252

let gen_segment_history =
  let open QCheck2.Gen in
  let run =
    map
      (fun (client, n, i0) ->
        List.init n (fun j ->
            { kind = Record; client; pick = Next; delta = 0; instance = i0 + j }))
      (triple (int_bound 3) (int_range 1 (4 * seg)) (int_bound 100_000))
  in
  let pick =
    frequency [ (4, pure Behind); (2, pure Next); (1, pure Ahead); (1, pure Small) ]
  in
  let kind = frequency [ (4, pure Record); (1, pure Seed); (3, pure Ack) ] in
  let single =
    map
      (fun (kind, client, pick, delta, instance) ->
        [ { kind; client; pick; delta; instance } ])
      (tup5 kind (int_bound 3) pick
         (frequency [ (1, int_bound (5 * seg)); (1, oneofl [ seg - 1; seg; seg + 1; 2 * seg ]) ])
         (int_bound 3))
  in
  pair
    (frequency [ (1, pure (3 * seg)); (4, int_range (seg / 2) (6 * seg)) ])
    (map List.concat (list_size (int_range 1 30) (frequency [ (1, run); (3, single) ])))

let prop_segments_match_model =
  QCheck2.Test.make ~name:"multi-segment windows match the model" ~count:150
    ~print:print_history gen_segment_history matches_model

(* The segment cases deterministically: one client commits 3.5
   segments in order under a capacity that ends inside the fourth; acks,
   re-records and seeds then land in its older segments, on both sides
   of segment boundaries and on evicted keys. Two more segments' worth of
   commits evict and free the oldest segments, and the probes run
   again. *)
let test_segment_cases () =
  let capacity = (3 * seg) + 100 in
  let record ?(kind = Record) client pick delta instance =
    { kind; client; pick; delta; instance }
  in
  let run client n i0 = List.init n (fun j -> record client Next 0 (i0 + j)) in
  let keys = (3 * seg) + (seg / 2) in
  let probes =
    List.concat_map
      (fun d ->
        [
          record ~kind:Ack 0 Behind d 0;
          record 0 Behind d 7;
          record ~kind:Seed 0 Behind d 9;
          record 0 Behind d 9;
        ])
      [ 0; 1; seg - 1; seg; seg + 1; (2 * seg) + 5; capacity - 1; capacity; keys - 1 ]
  in
  let ops = run 0 keys 1000 @ run 1 10 0 @ probes @ run 0 (2 * seg) 5000 @ probes in
  Alcotest.(check bool) "agrees with the model" true (matches_model (capacity, ops))

(* At the eviction boundary: after [capacity + 1] distinct keys the first
   is forgotten (its ack counts as lost, committing it again is no
   duplicate) while the second is still remembered. *)
let check_eviction_boundary ?capacity ~keys () =
  let t = Watchdog.create () in
  let m = Watchdog.monitor ?capacity t ~actor:"r0" in
  let key k = (k land 1, k lsr 1) in
  for k = 0 to keys do
    let client, seq = key k in
    Watchdog.record_commit m ~client ~seq ~instance:k
  done;
  let client, seq = key 1 in
  Watchdog.write_acked m ~client ~seq;
  Alcotest.(check int) "second key still remembered" 0 (Watchdog.lost_acks t);
  Watchdog.record_commit m ~client ~seq ~instance:max_int;
  Alcotest.(check int) "second key's dup caught" 1 (Watchdog.dup_commits t);
  let client, seq = key 0 in
  Watchdog.write_acked m ~client ~seq;
  Alcotest.(check int) "first key forgotten" 1 (Watchdog.lost_acks t);
  Watchdog.record_commit m ~client ~seq ~instance:max_int;
  Alcotest.(check int) "forgotten key not a dup" 1 (Watchdog.dup_commits t)

let test_eviction_boundary () =
  check_eviction_boundary ~capacity:8 ~keys:8 ();
  (* the default bound is 65536 keys *)
  check_eviction_boundary ~keys:65536 ()

(* Heap words the monitor holds per remembered key. A key in a segment
   costs two (its packed seq and instance there, its client in the ring)
   plus the spare slots: a first segment's, at most a third of its keys,
   and past that the unused slots of a client's newest and oldest
   segments and of two ring chunks. Measured: 2.06 words per key for
   both two-client tables below, 11.5 for one-key clients. *)
let words_per_key m ~keys = float (Obj.reachable_words (Obj.repr m)) /. float keys

let test_memory_per_key () =
  let t = Watchdog.create () in
  (* two sessions committing every seq in order: windows plus the ring;
     again with seqs past 2^40 and instances past 2^41, which a window's
     offsets reach as well as small ones *)
  List.iter
    (fun base ->
      let m = Watchdog.monitor t ~actor:"r0" in
      for seq = base + 1 to base + 100_000 do
        Watchdog.record_commit m ~client:0 ~seq ~instance:(2 * seq);
        Watchdog.record_commit m ~client:1 ~seq ~instance:((2 * seq) + 1)
      done;
      let w = words_per_key m ~keys:65536 in
      if w > 2.25 then
        Alcotest.failf "2 clients x 100k commits from seq %d: %.3f words per key > 2.25"
          (base + 1) w)
    [ 0; 1 lsl 40 ];
  (* two read-mostly sessions: one seq per call, but only about one call
     in ten (the writes) commits, so committed seqs are ~10 apart *)
  let m = Watchdog.monitor t ~actor:"r0" in
  let rng = Random.State.make [| 7 |] and seq = Array.make 2 0 and instance = ref 0 in
  while !instance < 200_000 do
    let client = Random.State.int rng 2 in
    seq.(client) <- seq.(client) + 1;
    if Random.State.int rng 10 = 0 then begin
      Watchdog.record_commit m ~client ~seq:seq.(client) ~instance:!instance;
      incr instance
    end
  done;
  let w = words_per_key m ~keys:65536 in
  if w > 2.25 then Alcotest.failf "2 clients, 90%% reads: %.3f words per key > 2.25" w;
  (* an open-loop session pool: one commit from each of 65536 clients *)
  let m = Watchdog.monitor t ~actor:"r0" in
  for client = 1 to 65536 do
    Watchdog.record_commit m ~client ~seq:1 ~instance:client
  done;
  let w = words_per_key m ~keys:65536 in
  if w > 12.0 then Alcotest.failf "65536 one-commit clients: %.3f words per key > 12" w;
  Alcotest.(check int) "no violations" 0 (Watchdog.violations t)

let suite =
  [
    ( "watchdog.checks",
      [
        Alcotest.test_case "duplicate commit" `Quick test_dup_commit;
        Alcotest.test_case "recovery seeding unchecked" `Quick
          test_seed_commit_is_unchecked;
        Alcotest.test_case "lost acknowledged write" `Quick test_lost_ack;
        Alcotest.test_case "stale read watermark" `Quick test_stale_read;
        Alcotest.test_case "lease mutual exclusion" `Quick
          test_lease_mutual_exclusion;
        Alcotest.test_case "lease groups independent" `Quick
          test_lease_groups_are_independent;
      ] );
    ( "watchdog.sink",
      [
        Alcotest.test_case "callback runs after counting" `Quick
          test_callback_after_counting;
        Alcotest.test_case "disabled and reset" `Quick test_disabled_and_reset;
        Alcotest.test_case "metrics registration" `Quick test_metrics_registration;
      ] );
    ( "watchdog.table",
      [
        QCheck_alcotest.to_alcotest prop_matches_model;
        QCheck_alcotest.to_alcotest prop_segments_match_model;
        Alcotest.test_case "segment cases" `Quick test_segment_cases;
        Alcotest.test_case "eviction boundary" `Quick test_eviction_boundary;
        Alcotest.test_case "memory per key" `Quick test_memory_per_key;
      ] );
  ]
