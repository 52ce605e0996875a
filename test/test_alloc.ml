(* Allocation guards for the commit path. OCaml allocates a block of
   more than 256 words straight in the major heap, where it stays until
   a later sweep; copying such blocks on every commit is what grows a
   replica's resident memory, whatever its live heap. These count the
   words allocated that way ([major_words - promoted_words]) over a
   deterministic single-threaded run. *)

module Watchdog = Grid_obs.Watchdog
module Kv = Grid_services.Kv_store
module RT = Grid_runtime.Runtime.Make (Kv)

(* A minor collection and then a major slice first bring both counters
   up to date: until a slice runs, the words a minor collection promoted
   are counted in [promoted_words] but not yet in [major_words]. *)
let direct () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.major_words -. s.promoted_words

let direct_major_words f =
  let before = direct () in
  f ();
  direct () -. before

(* Two sessions commit in order into a default monitor, past its 65536
   keys: its segments and ring chunks all come from the minor heap. *)
let test_watchdog_commits () =
  let m = Watchdog.monitor (Watchdog.create ()) ~actor:"r0" in
  let words =
    direct_major_words (fun () ->
        for k = 0 to 99_999 do
          Watchdog.record_commit m ~client:(k land 1) ~seq:((k lsr 1) + 1) ~instance:k
        done)
  in
  Printf.printf "100k commits from 2 clients: %.0f words\n" words;
  if words > 256.0 then
    Alcotest.failf "100k commits from 2 clients: %.0f words allocated in the major heap" words

(* The replicated key-value store with a snapshot every 64 commits, its
   64 keys holding 32-byte values (a 2.5 KB state). Each snapshot copies
   the encoded record once per replica, into the store write it hands
   over: 3 x ~330 words every 64 commits, ~15.5 words per commit. *)
let words_per_commit_bound = 32.0

let test_sim_snapshots () =
  let cfg = Grid_paxos.Config.make ~n:3 ~snapshot_interval:64 () in
  let t = RT.create ~seed:1 ~cfg ~scenario:(Grid_runtime.Scenario.uniform ()) () in
  let puts n =
    let k = ref 0 in
    ignore
      (RT.run_closed_loop_ops t ~clients:2 ~requests_per_client:n ~gen:(fun ~client () ->
           incr k;
           let value = Printf.sprintf "%-32s" (Printf.sprintf "v.%d.%d" client !k) in
           Some (Grid_runtime.Runtime.Do (Kv.Put { key = Printf.sprintf "k%04d" (!k mod 64); value }))))
  in
  (* warm up: every key written, the engine's and the runtime's tables grown *)
  puts 100;
  let cp0 = RT.R.commit_point (RT.replica t 0) in
  let words = direct_major_words (fun () -> puts 1000) in
  let commits = RT.R.commit_point (RT.replica t 0) - cp0 in
  Alcotest.(check bool) "the writes committed" true (commits >= 2000);
  let per_commit = words /. float commits in
  Printf.printf "%d commits: %.0f words, %.1f per commit\n" commits words per_commit;
  if per_commit > words_per_commit_bound then
    Alcotest.failf "%d commits: %.1f words per commit allocated in the major heap > %.0f"
      commits per_commit words_per_commit_bound

let suite =
  [
    ( "alloc.commit_path",
      [
        Alcotest.test_case "watchdog commits stay in the minor heap" `Quick
          test_watchdog_commits;
        Alcotest.test_case "kv snapshots copy the state once" `Quick test_sim_snapshots;
      ] );
  ]
