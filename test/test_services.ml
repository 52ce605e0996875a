(* Tests for the example services: semantics, codecs, diff/patch, and the
   apply/replay determinization contract that the replication layer
   relies on. *)

module Rng = Grid_util.Rng
module Noop = Grid_services.Noop
module Counter = Grid_services.Counter
module Broker = Grid_services.Resource_broker
module Sched = Grid_services.Grid_scheduler
module Kv = Grid_services.Kv_store

(* ------------------------------------------------------------------ *)
(* Noop *)

let test_noop_semantics () =
  let s = Noop.initial () in
  let o = Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 s Noop.Noop_write in
  Alcotest.(check int) "write bumps" 1 o.state.writes;
  let o2 = Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 o.state Noop.Noop_read in
  Alcotest.(check int) "read no-op" 1 o2.state.writes;
  Alcotest.(check bool) "classify read" true (Noop.classify Noop.Noop_read = `Read);
  Alcotest.(check bool) "classify write" true (Noop.classify Noop.Noop_write = `Write)

let test_noop_sized_write () =
  let s = Noop.initial () in
  let o = Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 s (Noop.Noop_sized_write 100) in
  Alcotest.(check int) "padding size" 100 (String.length o.state.padding);
  Alcotest.(check bool) "encoded state carries padding" true
    (String.length (Noop.encode_state o.state) > 100)

let test_noop_codec_and_diff () =
  let s = Noop.initial () in
  let o = Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 s Noop.Noop_write in
  let st = Noop.decode_state (Noop.encode_state o.state) in
  Alcotest.(check int) "state roundtrip" 1 st.writes;
  (match Noop.diff ~old_state:s o.state with
  | Some d ->
    let patched = Noop.patch s d in
    Alcotest.(check int) "patch = new" o.state.writes patched.writes;
    (* Padding unchanged -> delta much smaller than a sized state. *)
    let o2 = Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 o.state (Noop.Noop_sized_write 1000) in
    let d2 = Option.get (Noop.diff ~old_state:o.state o2.state) in
    let d3 = Option.get (Noop.diff ~old_state:o2.state
                           (Noop.apply ~rng:(Rng.of_int 1) ~now:0.0 o2.state Noop.Noop_write).state) in
    Alcotest.(check bool) "changed padding shipped" true (String.length d2 > 1000);
    Alcotest.(check bool) "unchanged padding not shipped" true (String.length d3 < 20)
  | None -> Alcotest.fail "noop should provide diffs");
  List.iter
    (fun op -> Alcotest.(check bool) "op roundtrip" true (Noop.decode_op (Noop.encode_op op) = op))
    [ Noop.Noop_read; Noop.Noop_write; Noop.Noop_sized_write 7 ]

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_semantics () =
  let s = Counter.initial () in
  let o = Counter.apply ~rng:(Rng.of_int 1) ~now:0.0 s (Counter.Add 5) in
  Alcotest.(check int) "state" 5 o.state;
  Alcotest.(check int) "result" 5 o.result;
  let o2 = Counter.apply ~rng:(Rng.of_int 1) ~now:0.0 o.state Counter.Get in
  Alcotest.(check int) "get result" 5 o2.result;
  Alcotest.(check int) "get preserves" 5 o2.state

let test_counter_codecs () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrip" true
        (Counter.decode_op (Counter.encode_op op) = op))
    [ Counter.Get; Counter.Add 42; Counter.Add (-7) ];
  Alcotest.(check int) "result roundtrip" (-3)
    (Counter.decode_result (Counter.encode_result (-3)));
  Alcotest.(check int) "state roundtrip" 99 (Counter.decode_state (Counter.encode_state 99))

(* ------------------------------------------------------------------ *)
(* Resource broker *)

let broker_with_resources ?(sites = 2) ?(per_site = 3) ?(capacity = 4) () =
  let s = ref (Broker.initial ()) in
  let rng = Rng.of_int 1 in
  for site = 0 to sites - 1 do
    for k = 0 to per_site - 1 do
      let o =
        Broker.apply ~rng ~now:0.0 !s
          (Broker.Register { rid = (site * 100) + k; site; capacity })
      in
      s := o.state
    done
  done;
  !s

let test_broker_register_select () =
  let s = broker_with_resources () in
  let rng = Rng.of_int 42 in
  let o = Broker.apply ~rng ~now:0.0 s (Broker.Select { site = 0; units = 2; strategy = Uniform }) in
  (match o.result with
  | Broker.Selected ids ->
    Alcotest.(check int) "two units" 2 (List.length ids);
    List.iter
      (fun rid -> Alcotest.(check bool) "local site preferred" true (rid < 100))
      ids
  | _ -> Alcotest.fail "expected Selected");
  Alcotest.(check int) "used units" 2 (Broker.total_used o.state)

let test_broker_remote_spill () =
  (* Exhaust site 0, then select again: must spill to site 1 (§2). *)
  let s = broker_with_resources ~per_site:1 ~capacity:2 () in
  let rng = Rng.of_int 7 in
  let o1 = Broker.apply ~rng ~now:0.0 s (Broker.Select { site = 0; units = 2; strategy = Uniform }) in
  let o2 =
    Broker.apply ~rng ~now:0.0 o1.state
      (Broker.Select { site = 0; units = 1; strategy = Uniform })
  in
  (match o2.result with
  | Broker.Selected [ rid ] -> Alcotest.(check int) "remote resource" 100 rid
  | _ -> Alcotest.fail "expected spill to remote site");
  let o3 =
    Broker.apply ~rng ~now:0.0 o2.state
      (Broker.Select { site = 0; units = 5; strategy = Uniform })
  in
  match o3.result with
  | Broker.No_capacity -> ()
  | _ -> Alcotest.fail "expected No_capacity"

let test_broker_nondeterminism_and_replay () =
  (* Two replicas with different RNGs diverge on apply; replay with the
     witness reconverges them — the paper's core mechanism. *)
  let s = broker_with_resources () in
  let op = Broker.Select { site = 0; units = 1; strategy = Uniform } in
  let diverged = ref false in
  for seed = 0 to 20 do
    let o1 = Broker.apply ~rng:(Rng.of_int seed) ~now:0.0 s op in
    let o2 = Broker.apply ~rng:(Rng.of_int (seed + 1000)) ~now:0.0 s op in
    if o1.result <> o2.result then diverged := true
  done;
  Alcotest.(check bool) "independent rngs diverge somewhere" true !diverged;
  let o = Broker.apply ~rng:(Rng.of_int 3) ~now:0.0 s op in
  let witness = Option.get o.witness in
  let st, res = Broker.replay s op ~witness in
  Alcotest.(check bool) "replay reproduces result" true (res = o.result);
  Alcotest.(check string) "replay reproduces state" (Broker.encode_state o.state)
    (Broker.encode_state st)

let test_broker_release () =
  let s = broker_with_resources () in
  let rng = Rng.of_int 5 in
  let o = Broker.apply ~rng ~now:0.0 s (Broker.Select { site = 0; units = 3; strategy = Uniform }) in
  let rid = match o.result with Broker.Selected (r :: _) -> r | _ -> Alcotest.fail "sel" in
  let o2 = Broker.apply ~rng ~now:0.0 o.state (Broker.Release { rid; units = 1 }) in
  Alcotest.(check int) "released" (Broker.total_used o.state - 1) (Broker.total_used o2.state);
  let o3 = Broker.apply ~rng ~now:0.0 o2.state (Broker.Release { rid = 999; units = 1 }) in
  match o3.result with
  | Broker.Error _ -> ()
  | _ -> Alcotest.fail "unknown resource should error"

let test_broker_power_of_two_balances () =
  (* Power-of-two-choices yields lower imbalance than uniform random
     (Mitzenmacher); check on a replicated sequence of selections. *)
  let run strategy seed =
    let s = ref (broker_with_resources ~sites:1 ~per_site:10 ~capacity:1000 ()) in
    let rng = Rng.of_int seed in
    for _ = 1 to 500 do
      let o = Broker.apply ~rng ~now:0.0 !s (Broker.Select { site = 0; units = 1; strategy }) in
      s := o.state
    done;
    Broker.imbalance !s
  in
  let total_uniform = ref 0 and total_p2 = ref 0 in
  for seed = 1 to 10 do
    total_uniform := !total_uniform + run Broker.Uniform seed;
    total_p2 := !total_p2 + run Broker.Power_of_two seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "p2c (%d) beats uniform (%d)" !total_p2 !total_uniform)
    true (!total_p2 < !total_uniform)

let test_broker_reads () =
  let s = broker_with_resources () in
  let rng = Rng.of_int 5 in
  let o = Broker.apply ~rng ~now:0.0 s Broker.List_free in
  (match o.result with
  | Broker.Free_units [ (0, a); (1, b) ] ->
    Alcotest.(check int) "site 0 free" 12 a;
    Alcotest.(check int) "site 1 free" 12 b
  | _ -> Alcotest.fail "expected two sites");
  match (Broker.apply ~rng ~now:0.0 s (Broker.Resource_info 0)).result with
  | Broker.Info (Some r) -> Alcotest.(check int) "capacity" 4 r.capacity
  | _ -> Alcotest.fail "expected resource info"

let test_broker_codecs () =
  let ops =
    [
      Broker.Register { rid = 1; site = 2; capacity = 3 };
      Broker.Release { rid = 1; units = 2 };
      Broker.Select { site = 0; units = 4; strategy = Power_of_two };
      Broker.List_free;
      Broker.Resource_info 9;
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrip" true (Broker.decode_op (Broker.encode_op op) = op))
    ops;
  let s = broker_with_resources () in
  Alcotest.(check string) "state roundtrip" (Broker.encode_state s)
    (Broker.encode_state (Broker.decode_state (Broker.encode_state s)))

let test_broker_diff_patch () =
  let s = broker_with_resources () in
  let rng = Rng.of_int 11 in
  let o = Broker.apply ~rng ~now:0.0 s (Broker.Select { site = 1; units = 2; strategy = Uniform }) in
  let d = Option.get (Broker.diff ~old_state:s o.state) in
  Alcotest.(check bool) "delta smaller than full state" true
    (String.length d < String.length (Broker.encode_state o.state));
  Alcotest.(check string) "patch reproduces" (Broker.encode_state o.state)
    (Broker.encode_state (Broker.patch s d))

(* ------------------------------------------------------------------ *)
(* Grid scheduler *)

let sched_base () =
  let rng = Rng.of_int 1 in
  let s = ref (Sched.initial ()) in
  List.iter
    (fun m -> s := (Sched.apply ~rng ~now:0.0 !s (Sched.Add_machine m)).state)
    [ 1; 2; 3 ];
  !s

let test_sched_fcfs_priority () =
  let rng = Rng.of_int 2 in
  let s = sched_base () in
  let s = (Sched.apply ~rng ~now:1.0 s (Sched.Submit { job = 10; priority = 0 })).state in
  let s = (Sched.apply ~rng ~now:2.0 s (Sched.Submit { job = 11; priority = 5 })).state in
  let s = (Sched.apply ~rng ~now:3.0 s (Sched.Submit { job = 12; priority = 0 })).state in
  let o = Sched.apply ~rng ~now:4.0 s Sched.Examine in
  (match o.result with
  | Sched.Scheduled (Some (job, _)) -> Alcotest.(check int) "priority first" 11 job
  | _ -> Alcotest.fail "expected schedule");
  let o2 = Sched.apply ~rng ~now:5.0 o.state Sched.Examine in
  (match o2.result with
  | Sched.Scheduled (Some (job, _)) -> Alcotest.(check int) "then FCFS" 10 job
  | _ -> Alcotest.fail "expected schedule");
  let o3 = Sched.apply ~rng ~now:6.0 o2.state Sched.Examine in
  match o3.result with
  | Sched.Scheduled (Some (job, _)) -> Alcotest.(check int) "then next" 12 job
  | _ -> Alcotest.fail "expected schedule"

let test_sched_job_a_b_race () =
  (* The paper's §2 example: job A arrives at t1, job B (higher priority)
     at t2 > t1. A fast scheduler examining between t1 and t2 picks A; a
     slow one examining after t2 picks B. Same request sequence, different
     behaviour — pure examination-time nondeterminism. *)
  let rng = Rng.of_int 3 in
  let base = sched_base () in
  (* Fast replica: examines between the arrivals. *)
  let s_fast = (Sched.apply ~rng ~now:1.0 base (Sched.Submit { job = 1; priority = 0 })).state in
  let fast_pick = Sched.apply ~rng ~now:1.5 s_fast Sched.Examine in
  let s_fast' =
    (Sched.apply ~rng ~now:2.0 fast_pick.state (Sched.Submit { job = 2; priority = 9 })).state
  in
  ignore s_fast';
  (* Slow replica: same submissions, examines after both. *)
  let s_slow = (Sched.apply ~rng ~now:1.0 base (Sched.Submit { job = 1; priority = 0 })).state in
  let s_slow = (Sched.apply ~rng ~now:2.0 s_slow (Sched.Submit { job = 2; priority = 9 })).state in
  let slow_pick = Sched.apply ~rng ~now:2.5 s_slow Sched.Examine in
  let job_of o =
    match o.Sched.result with
    | Sched.Scheduled (Some (j, _)) -> j
    | _ -> Alcotest.fail "expected schedule"
  in
  Alcotest.(check int) "fast picks A" 1 (job_of fast_pick);
  Alcotest.(check int) "slow picks B" 2 (job_of slow_pick)

let test_sched_replay () =
  let rng = Rng.of_int 4 in
  let s = sched_base () in
  let o1 = Sched.apply ~rng ~now:7.25 s (Sched.Submit { job = 5; priority = 1 }) in
  (* Replay the submit on a replica: the arrival timestamp must come from
     the witness, not the replica's own clock. *)
  let st, res = Sched.replay s (Sched.Submit { job = 5; priority = 1 })
      ~witness:(Option.get o1.witness) in
  Alcotest.(check bool) "submit replay result" true (res = o1.result);
  Alcotest.(check string) "submit replay state" (Sched.encode_state o1.state)
    (Sched.encode_state st);
  let o2 = Sched.apply ~rng ~now:8.0 o1.state Sched.Examine in
  let st2, res2 = Sched.replay o1.state Sched.Examine ~witness:(Option.get o2.witness) in
  Alcotest.(check bool) "examine replay result" true (res2 = o2.result);
  Alcotest.(check string) "examine replay state" (Sched.encode_state o2.state)
    (Sched.encode_state st2)

let test_sched_complete_and_reads () =
  let rng = Rng.of_int 5 in
  let s = sched_base () in
  let s = (Sched.apply ~rng ~now:1.0 s (Sched.Submit { job = 1; priority = 0 })).state in
  let o = Sched.apply ~rng ~now:2.0 s Sched.Examine in
  let job, machine =
    match o.result with Sched.Scheduled (Some jm) -> jm | _ -> Alcotest.fail "sched"
  in
  Alcotest.(check int) "machine loaded" 1 (Sched.machine_load o.state machine);
  (match (Sched.apply ~rng ~now:3.0 o.state (Sched.Assignment_of job)).result with
  | Sched.Assigned_to (Some m) -> Alcotest.(check int) "assignment read" machine m
  | _ -> Alcotest.fail "expected assignment");
  let done_state = (Sched.apply ~rng ~now:4.0 o.state (Sched.Complete { job; machine })).state in
  Alcotest.(check int) "machine freed" 0 (Sched.machine_load done_state machine);
  match (Sched.apply ~rng ~now:5.0 done_state Sched.Queue_length).result with
  | Sched.Length 0 -> ()
  | _ -> Alcotest.fail "queue should be empty"

let test_sched_duplicate_job () =
  let rng = Rng.of_int 6 in
  let s = sched_base () in
  let s = (Sched.apply ~rng ~now:1.0 s (Sched.Submit { job = 1; priority = 0 })).state in
  match (Sched.apply ~rng ~now:2.0 s (Sched.Submit { job = 1; priority = 3 })).result with
  | Sched.Error _ -> ()
  | _ -> Alcotest.fail "duplicate job must error"

let test_sched_codecs () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrip" true (Sched.decode_op (Sched.encode_op op) = op))
    [
      Sched.Add_machine 3;
      Sched.Submit { job = 1; priority = -2 };
      Sched.Examine;
      Sched.Complete { job = 1; machine = 2 };
      Sched.Queue_length;
      Sched.Assignment_of 5;
    ];
  let rng = Rng.of_int 7 in
  let s = sched_base () in
  let s = (Sched.apply ~rng ~now:1.5 s (Sched.Submit { job = 1; priority = 0 })).state in
  Alcotest.(check string) "state roundtrip" (Sched.encode_state s)
    (Sched.encode_state (Sched.decode_state (Sched.encode_state s)))

(* ------------------------------------------------------------------ *)
(* KV store *)

let test_kv_semantics () =
  let rng = Rng.of_int 1 in
  let s = Kv.initial () in
  let s = (Kv.apply ~rng ~now:0.0 s (Kv.Put { key = "a"; value = "1" })).state in
  (match (Kv.apply ~rng ~now:0.0 s (Kv.Get "a")).result with
  | Kv.Value (Some "1") -> ()
  | _ -> Alcotest.fail "get after put");
  let s = (Kv.apply ~rng ~now:0.0 s (Kv.Append { key = "a"; value = "2" })).state in
  (match (Kv.apply ~rng ~now:0.0 s (Kv.Get "a")).result with
  | Kv.Value (Some "12") -> ()
  | _ -> Alcotest.fail "append");
  let s = (Kv.apply ~rng ~now:0.0 s (Kv.Del "a")).state in
  (match (Kv.apply ~rng ~now:0.0 s (Kv.Get "a")).result with
  | Kv.Value None -> ()
  | _ -> Alcotest.fail "del");
  match (Kv.apply ~rng ~now:0.0 s Kv.Size).result with
  | Kv.Count 0 -> ()
  | _ -> Alcotest.fail "size"

let test_kv_cas () =
  let rng = Rng.of_int 1 in
  let s = Kv.initial () in
  let o = Kv.apply ~rng ~now:0.0 s (Kv.Cas { key = "k"; expected = None; value = "v1" }) in
  (match o.result with Kv.Cas_ok true -> () | _ -> Alcotest.fail "cas on empty");
  let o2 =
    Kv.apply ~rng ~now:0.0 o.state (Kv.Cas { key = "k"; expected = Some "wrong"; value = "v2" })
  in
  (match o2.result with Kv.Cas_ok false -> () | _ -> Alcotest.fail "cas mismatch");
  Alcotest.(check (option string)) "unchanged" (Some "v1") (Kv.find o2.state "k")

let test_kv_footprints () =
  Alcotest.(check (list string)) "put" [ "kv/x" ] (Kv.footprint (Kv.Put { key = "x"; value = "" }));
  Alcotest.(check (list string)) "size empty" [] (Kv.footprint Kv.Size)

let test_kv_version_bumps () =
  let rng = Rng.of_int 1 in
  let s = Kv.initial () in
  let s1 = (Kv.apply ~rng ~now:0.0 s (Kv.Put { key = "a"; value = "1" })).state in
  let s2 = (Kv.apply ~rng ~now:0.0 s1 (Kv.Get "a")).state in
  Alcotest.(check int) "write bumps version" 1 s1.version;
  Alcotest.(check int) "read does not" 1 s2.version

let gen_kv_op =
  QCheck2.Gen.(
    let key = map (fun i -> "k" ^ string_of_int i) (int_range 0 5) in
    (* A short vocabulary too, so a [Cas] sometimes finds what it expects. *)
    let value = oneof [ oneofl [ "a"; "b" ]; string_size (int_range 0 8) ] in
    oneof
      [
        map2 (fun key value -> Kv.Put { key; value }) key value;
        map (fun k -> Kv.Get k) key;
        map (fun k -> Kv.Del k) key;
        map3 (fun key expected value -> Kv.Cas { key; expected; value })
          key (option (oneofl [ "a"; "b" ])) value;
        map2 (fun key value -> Kv.Append { key; value }) key (string_size (int_range 0 4));
        return Kv.Size;
      ])

let prop_kv_diff_patch =
  QCheck2.Test.make ~name:"kv diff/patch equals full state" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) gen_kv_op)
    (fun ops ->
      let rng = Rng.of_int 1 in
      let final =
        List.fold_left (fun s op -> (Kv.apply ~rng ~now:0.0 s op).state) (Kv.initial ()) ops
      in
      (* Patch each intermediate diff chain and compare. *)
      let patched =
        List.fold_left
          (fun s op ->
            let o = Kv.apply ~rng:(Rng.of_int 2) ~now:0.0 s op in
            match Kv.diff ~old_state:s o.state with
            | Some d -> Kv.patch s d
            | None -> o.state)
          (Kv.initial ()) ops
      in
      Kv.encode_state final = Kv.encode_state patched)

let prop_kv_codec_roundtrip =
  QCheck2.Test.make ~name:"kv op codec roundtrip" ~count:200 gen_kv_op (fun op ->
      Kv.decode_op (Kv.encode_op op) = op)

let prop_kv_replay_matches_apply =
  QCheck2.Test.make ~name:"kv replay = apply (deterministic service)" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) gen_kv_op)
    (fun ops ->
      let rng = Rng.of_int 1 in
      List.fold_left
        (fun (s, ok) op ->
          let o = Kv.apply ~rng ~now:0.0 s op in
          let s', r' = Kv.replay s op ~witness:"" in
          (o.state, ok && r' = o.result && Kv.encode_state s' = Kv.encode_state o.state))
        (Kv.initial (), true)
        ops
      |> snd)

(* ------------------------------------------------------------------ *)
(* State codecs written into an encoder *)

module Wire = Grid_codec.Wire
module Lease = Grid_services.Lease_manager

(* [encode_state_into] appends exactly the bytes of [encode_state], after
   whatever the encoder already holds: the replica writes its periodic
   snapshots with it, catch-up and state shipping with [encode_state]. *)
let into_matches (type s) (module S : Grid_paxos.Service_intf.S with type state = s)
    (st : s) =
  let e = Wire.Encoder.create () in
  Wire.Encoder.raw e "head";
  S.encode_state_into e st;
  String.equal (Wire.Encoder.contents e) ("head" ^ S.encode_state st)
  && String.equal (S.encode_state st) (Wire.encode (fun e -> S.encode_state_into e st))
  && String.equal (S.encode_state (S.decode_state (S.encode_state st))) (S.encode_state st)

let test_encode_state_into () =
  let rng = Rng.of_int 3 in
  let check name ok = Alcotest.(check bool) name true ok in
  let noop s op = (Noop.apply ~rng ~now:1.0 s op).state
  and sched s op = (Sched.apply ~rng ~now:1.0 s op).state
  and lease s op = (Lease.apply ~rng ~now:1.0 s op).state in
  check "noop"
    (into_matches (module Noop)
       (List.fold_left noop (Noop.initial ()) [ Noop.Noop_write; Noop.Noop_sized_write 300 ]));
  List.iter (fun n -> check "counter" (into_matches (module Counter) n)) [ 0; -7; max_int ];
  check "broker" (into_matches (module Broker) (broker_with_resources ()));
  check "scheduler"
    (into_matches (module Sched)
       (List.fold_left sched (sched_base ())
          [ Sched.Submit { job = 10; priority = 0 }; Sched.Submit { job = 11; priority = 5 };
            Sched.Examine ]));
  check "lease manager"
    (into_matches (module Lease)
       (List.fold_left lease (Lease.initial ())
          [ Lease.Acquire { resource = "gpu"; holder = 1; ttl_ms = 50.0 };
            Lease.Acquire { resource = "cpu"; holder = 2; ttl_ms = 10.0 } ]));
  check "kv, empty" (into_matches (module Kv) (Kv.initial ()))

(* The kv state's bytes as [encode_state] wrote them before it walked the
   map: the bindings as a [Wire.Encoder.list]. *)
let kv_state_as_list (st : Kv.state) =
  Wire.encode (fun e ->
      Wire.Encoder.uint e st.version;
      Wire.Encoder.list e
        (fun (k, v) ->
          Wire.Encoder.string e k;
          Wire.Encoder.string e v)
        (Kv.Smap.bindings st.entries))

let prop_kv_encode_state_into =
  QCheck2.Test.make ~name:"kv state codec: into = encode_state = bindings list" ~count:300
    QCheck2.Gen.(
      pair (int_bound 1_000_000)
        (list_size (int_bound 200) (pair (string_size (int_bound 12)) (string_size (int_bound 300)))))
    (fun (version, bindings) ->
      let st = { Kv.version; entries = Kv.Smap.of_seq (List.to_seq bindings) } in
      into_matches (module Kv) st && String.equal (Kv.encode_state st) (kv_state_as_list st))

(* ------------------------------------------------------------------ *)
(* Every service under random operations *)

module type CASE = sig
  include Grid_paxos.Service_intf.S

  val gen_op : op QCheck2.Gen.t
end

let gen_noop_op =
  QCheck2.Gen.(
    oneof
      [ return Noop.Noop_read; return Noop.Noop_write;
        map (fun n -> Noop.Noop_sized_write n) (int_bound 40) ])

let gen_counter_op =
  QCheck2.Gen.(oneof [ return Counter.Get; map (fun n -> Counter.Add n) (int_range (-50) 50) ])

let gen_lease_op =
  QCheck2.Gen.(
    let resource = map (fun i -> "r" ^ string_of_int i) (int_range 0 3) in
    let holder = int_range 0 2 and ttl_ms = map float_of_int (int_range 1 60) in
    oneof
      [
        map3 (fun resource holder ttl_ms -> Lease.Acquire { resource; holder; ttl_ms })
          resource holder ttl_ms;
        map3 (fun resource holder ttl_ms -> Lease.Renew { resource; holder; ttl_ms })
          resource holder ttl_ms;
        map2 (fun resource holder -> Lease.Release { resource; holder }) resource holder;
        map (fun r -> Lease.Holder_of r) resource;
        return Lease.Active_count;
      ])

let gen_broker_op =
  QCheck2.Gen.(
    let rid = int_range 0 5 and site = int_range 0 2 in
    oneof
      [
        map3 (fun rid site capacity -> Broker.Register { rid; site; capacity })
          rid site (int_range 0 4);
        map2 (fun rid units -> Broker.Release { rid; units }) rid (int_range 0 3);
        map3 (fun site units strategy -> Broker.Select { site; units; strategy })
          site (int_range 0 3) (oneofl [ Broker.Uniform; Power_of_two; Least_loaded ]);
        return Broker.List_free;
        map (fun rid -> Broker.Resource_info rid) rid;
      ])

let gen_sched_op =
  QCheck2.Gen.(
    let job = int_range 0 7 and machine = int_range 0 3 in
    oneof
      [
        map (fun m -> Sched.Add_machine m) machine;
        map2 (fun job priority -> Sched.Submit { job; priority }) job (int_range (-2) 2);
        return Sched.Examine;
        map2 (fun job machine -> Sched.Complete { job; machine }) job machine;
        return Sched.Queue_length;
        map (fun job -> Sched.Assignment_of job) job;
      ])

(* A walk of random operations from [initial ()]: each op comes with the
   leader's rng seed and the milliseconds its clock advanced (0-29), so
   leases both live and lapse. *)
let gen_walk length gen_op =
  QCheck2.Gen.(list_size length (triple gen_op (int_bound 1_000_000) (int_bound 29)))

module Props (C : CASE) = struct
  let bytes = C.encode_state

  (* The transitions of a walk: state before, op, rng seed, clock, and
     [apply]'s outcome. *)
  let transitions walk =
    let _, _, acc =
      List.fold_left
        (fun (st, now, acc) (op, seed, dt) ->
          let now = now +. float_of_int dt in
          let o = C.apply ~rng:(Rng.of_int seed) ~now st op in
          (o.C.state, now, (st, op, seed, now, o) :: acc))
        (C.initial (), 0.0, []) walk
    in
    List.rev acc

  let test name holds =
    QCheck2.Test.make ~name:(C.name ^ ": " ^ name) ~count:100
      ~print:(fun walk ->
        String.concat "; "
          (List.map
             (fun (op, seed, dt) -> Printf.sprintf "+%dms seed %d op %S" dt seed (C.encode_op op))
             walk))
      (gen_walk (QCheck2.Gen.int_range 1 40) C.gen_op)
      (fun walk -> List.for_all holds (transitions walk))

  let roundtrip =
    test "decode_state/encode_state roundtrip" (fun (_, _, _, _, o) ->
        let b = bytes o.C.state in
        String.equal (bytes (C.decode_state b)) b)

  let diff_patch =
    test "patch old (diff old new) = new" (fun (old, _, _, _, o) ->
        match C.diff ~old_state:old o.C.state with
        | Some d -> String.equal (bytes (C.patch old d)) (bytes o.C.state)
        | None -> true)

  (* A witness must pin down the whole transition; without one, another
     rng and another clock must reach the same state (a read's result
     may still differ: lease reads consult the clock). *)
  let witness =
    test "witness completeness" (fun (st, op, seed, now, o) ->
        match o.C.witness with
        | Some w ->
          let st', r = C.replay st op ~witness:w in
          String.equal (C.encode_result r) (C.encode_result o.C.result)
          && String.equal (bytes st') (bytes o.C.state)
        | None ->
          let o' = C.apply ~rng:(Rng.of_int (seed + 1)) ~now:(now +. 7.5) st op in
          String.equal (bytes o'.C.state) (bytes o.C.state))

  let all = [ roundtrip; diff_patch; witness ]

  (* Each state and delta along eight fixed-seed walks of 150 ops, then
     [extra] of the state. *)
  let add_golden add ~extra =
    for seed = 1 to 8 do
      let walk =
        QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |])
          (gen_walk (QCheck2.Gen.return 150) C.gen_op)
      in
      List.iter
        (fun (old, _, _, _, o) ->
          add (bytes o.C.state);
          add (Option.value ~default:"-" (C.diff ~old_state:old o.C.state));
          extra o.C.state)
        (transitions walk)
    done
end

module Noop_props = Props (struct include Noop let gen_op = gen_noop_op end)
module Counter_props = Props (struct include Counter let gen_op = gen_counter_op end)
module Kv_props = Props (struct include Kv let gen_op = gen_kv_op end)
module Lease_props = Props (struct include Lease let gen_op = gen_lease_op end)
module Broker_props = Props (struct include Broker let gen_op = gen_broker_op end)
module Sched_props = Props (struct include Sched let gen_op = gen_sched_op end)

let kv_ranges = [ ("", None); ("kv/k1", Some "kv/k4"); ("kv/k3", None); ("kv/", Some "kv/k2") ]

(* The bytes that accepted log entries, snapshots and [Install] carry
   for the four map-valued services, pinned: a change to a map codec or
   a delta must not move them. *)
let golden_services_digest = "bce005c1f3e1eee6b5e973efc08193db"

let golden_services_bytes () =
  let b = Buffer.create 65536 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  Kv_props.add_golden add ~extra:(fun st ->
      List.iter
        (fun (lo, hi) ->
          let n, slice = Option.get (Kv.export_range st ~lo ~hi) in
          add (string_of_int n);
          add slice)
        kv_ranges);
  Lease_props.add_golden add ~extra:ignore;
  Broker_props.add_golden add ~extra:ignore;
  Sched_props.add_golden add ~extra:ignore;
  Buffer.contents b

let test_golden_services_bytes () =
  Alcotest.(check string) "digest of states, deltas and range slices" golden_services_digest
    (Digest.to_hex (Digest.string (golden_services_bytes ())))

(* A range exported from any state and imported into an empty store
   gives exactly the slice; importing it again, or into the state it came
   from, changes nothing, version included. *)
let prop_kv_range_handoff =
  let bound = QCheck2.Gen.(map (fun i -> "kv/k" ^ string_of_int i) (int_range 0 6)) in
  QCheck2.Test.make ~name:"kv export_range/import_range: the slice, idempotent" ~count:200
    QCheck2.Gen.(triple (gen_walk (int_range 1 40) gen_kv_op) bound (option bound))
    (fun (walk, lo, hi) ->
      let st =
        List.fold_left (fun _ (_, _, _, _, o) -> o.Kv.state) (Kv.initial ())
          (Kv_props.transitions walk)
      in
      let same a b = String.equal (Kv.encode_state a) (Kv.encode_state b) in
      let n, slice = Option.get (Kv.export_range st ~lo ~hi) in
      let t = Kv.import_range (Kv.initial ()) slice in
      Kv.cardinal t = n
      && Kv.export_range t ~lo:"" ~hi:None = Some (n, slice)
      && same (Kv.import_range t slice) t
      && same (Kv.import_range st slice) st)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "services.noop",
      [
        Alcotest.test_case "semantics" `Quick test_noop_semantics;
        Alcotest.test_case "sized write" `Quick test_noop_sized_write;
        Alcotest.test_case "codec + diff" `Quick test_noop_codec_and_diff;
      ] );
    ( "services.counter",
      [
        Alcotest.test_case "semantics" `Quick test_counter_semantics;
        Alcotest.test_case "codecs" `Quick test_counter_codecs;
      ] );
    ( "services.broker",
      [
        Alcotest.test_case "register + select" `Quick test_broker_register_select;
        Alcotest.test_case "remote spill + exhaustion" `Quick test_broker_remote_spill;
        Alcotest.test_case "nondeterminism + witness replay" `Quick
          test_broker_nondeterminism_and_replay;
        Alcotest.test_case "release" `Quick test_broker_release;
        Alcotest.test_case "power-of-two balances better" `Quick
          test_broker_power_of_two_balances;
        Alcotest.test_case "reads" `Quick test_broker_reads;
        Alcotest.test_case "codecs" `Quick test_broker_codecs;
        Alcotest.test_case "diff/patch" `Quick test_broker_diff_patch;
      ] );
    ( "services.scheduler",
      [
        Alcotest.test_case "FCFS with priority override" `Quick test_sched_fcfs_priority;
        Alcotest.test_case "job A/B examination race (paper §2)" `Quick
          test_sched_job_a_b_race;
        Alcotest.test_case "witness replay" `Quick test_sched_replay;
        Alcotest.test_case "complete + reads" `Quick test_sched_complete_and_reads;
        Alcotest.test_case "duplicate job" `Quick test_sched_duplicate_job;
        Alcotest.test_case "codecs" `Quick test_sched_codecs;
      ] );
    ( "services.kv",
      Alcotest.test_case "semantics" `Quick test_kv_semantics
      :: Alcotest.test_case "cas" `Quick test_kv_cas
      :: Alcotest.test_case "footprints" `Quick test_kv_footprints
      :: Alcotest.test_case "version bumps" `Quick test_kv_version_bumps
      :: qcheck [ prop_kv_diff_patch; prop_kv_codec_roundtrip; prop_kv_replay_matches_apply ]
    );
    ( "services.state_codec",
      Alcotest.test_case "encode_state_into = encode_state" `Quick test_encode_state_into
      :: qcheck [ prop_kv_encode_state_into ] );
    ( "services.random_ops",
      Alcotest.test_case "golden state, delta and range bytes" `Quick
        test_golden_services_bytes
      :: qcheck
           (List.concat
              [ Noop_props.all; Counter_props.all; Kv_props.all; Lease_props.all;
                Broker_props.all; Sched_props.all ]
           @ [ prop_kv_range_handoff ]) );
  ]
