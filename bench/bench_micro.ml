(* Bechamel microbenchmarks of the protocol-critical data paths: wire
   codec, CRC, heap, log append, snapshot encoding, the watchdog's commit
   table, footprint checks, the TCP transport's incremental frame reader. These are ours (the paper has no microbenchmarks); they guard
   the constant factors the simulator's CPU-cost model abstracts. *)

open Bechamel
open Toolkit
module Wire = Grid_codec.Wire
module Plog = Grid_paxos.Plog
module Types = Grid_paxos.Types
module Ids = Grid_util.Ids

let sample_request : Types.request =
  {
    id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 3) ~seq:17;
    rtype = Types.Write;
    payload = String.make 64 'p';
    trace = Types.no_trace;
  }

let sample_proposal : Types.proposal =
  {
    requests = [ sample_request ];
    update = Types.Delta (String.make 128 's');
    replies = [ { req = sample_request.id; status = Types.Ok; payload = "r" } ];
  }

let encoded_proposal = Wire.encode (fun e -> Types.encode_proposal e sample_proposal)
let crc_payload = String.make 1024 'x'

let encode_proposal () =
  ignore (Sys.opaque_identity (Wire.encode (fun e -> Types.encode_proposal e sample_proposal)))

let decode_proposal () =
  ignore (Sys.opaque_identity (Wire.decode encoded_proposal Types.decode_proposal))

let test_encode_proposal =
  Test.make ~name:"codec: encode proposal" (Staged.stage encode_proposal)

let test_decode_proposal =
  Test.make ~name:"codec: decode proposal" (Staged.stage decode_proposal)

(* A write-sized [Accept] as the TCP transport ships it, in V2: one
   request with a 64-byte payload, a 40-byte delta, the reply aligned
   with the request. *)
module WC = Grid_paxos.Wire_codec

let v2_accept =
  Types.Accept
    {
      ballot = Types.Ballot.make ~round:2 ~holder:0;
      instance = 1000;
      proposal = { sample_proposal with update = Types.Delta (String.make 40 'd') };
    }

let encoded_v2_accept = WC.V2.encode v2_accept
let v2_encode () = ignore (Sys.opaque_identity (WC.V2.encode v2_accept))
let v2_decode () = ignore (Sys.opaque_identity (WC.V2.decode encoded_v2_accept))
let test_v2_encode = Test.make ~name:"wire v2: encode Accept" (Staged.stage v2_encode)
let test_v2_decode = Test.make ~name:"wire v2: decode Accept" (Staged.stage v2_decode)

let test_crc =
  Test.make ~name:"codec: crc32 1KiB"
    (Staged.stage (fun () -> ignore (Wire.crc32 crc_payload)))

module Int_heap = Grid_util.Heap.Make (Int)

let test_heap =
  Test.make ~name:"heap: 64 push + drain"
    (Staged.stage (fun () ->
         let h = Int_heap.create () in
         for i = 63 downto 0 do
           Int_heap.add h i
         done;
         while Int_heap.pop_min h <> None do
           ()
         done))

let test_plog_append =
  Test.make ~name:"plog: 64 accept + commit"
    (Staged.stage (fun () ->
         let log = Plog.create () in
         let ballot = Types.Ballot.make ~round:1 ~holder:0 in
         for i = 1 to 64 do
           ignore (Plog.accept log ~instance:i ~ballot sample_proposal);
           ignore (Plog.commit log ~instance:i)
         done))

let snapshot_roundtrip =
  let snap =
    {
      Grid_paxos.Snapshot.commit_point = 100;
      state = String.make 256 's';
      dedup =
        List.init 16 (fun c ->
            ( c,
              { Types.req = Ids.Request_id.make ~client:(Ids.Client_id.of_int c) ~seq:9;
                status = Types.Ok;
                payload = "ok" } ));
      prepared = [];
      outcomes = [];
      reshard = "";
    }
  in
  fun () -> ignore (Grid_paxos.Snapshot.decode (Grid_paxos.Snapshot.encode snap))

let test_snapshot = Test.make ~name:"snapshot: encode+decode" (Staged.stage snapshot_roundtrip)

(* A periodic snapshot of a 4096-key store (32-byte values, ~170 KB
   state) as a replica writes one: the state encoded into an encoder
   kept across calls, then copied once into the record. *)
let snapshot_kv =
  let module Kv = Grid_services.Kv_store in
  let st =
    {
      Kv.version = 4096;
      entries =
        Kv.Smap.of_seq
          (Seq.init 4096 (fun k ->
               (Printf.sprintf "k%04d" k, Printf.sprintf "%-32s" (string_of_int k))));
    }
  in
  let snap =
    { Grid_paxos.Snapshot.commit_point = 100; state = ""; dedup = []; prepared = [];
      outcomes = []; reshard = "" }
  in
  let state = Wire.Encoder.create () in
  fun () ->
    Wire.Encoder.clear state;
    Kv.encode_state_into state st;
    ignore (Sys.opaque_identity (Grid_paxos.Snapshot.encode_with ~state snap))

let test_snapshot_kv =
  Test.make ~name:"snapshot: encode, 4096-key kv" (Staged.stage snapshot_kv)

(* Two sessions committing in order against a full table (the default
   65536 keys): every call remembers one key and evicts the oldest. *)
let watchdog_commit =
  let m = Grid_obs.Watchdog.monitor (Grid_obs.Watchdog.create ()) ~actor:"r0" in
  let next = ref 0 in
  let commit () =
    let k = !next in
    next := k + 1;
    Grid_obs.Watchdog.record_commit m ~client:(k land 1) ~seq:(k lsr 1) ~instance:k
  in
  for _ = 1 to 65536 do
    commit ()
  done;
  commit

let test_watchdog_commit =
  Test.make ~name:"watchdog: record_commit, full table" (Staged.stage watchdog_commit)

(* The batch gate's footprint checks: a 3-key transaction branch against
   a full batch ([max_batch] = 6 single-key writes) with no key in common
   (the merge walks both lists), and against two handed-away ranges. *)
module Footprint = Grid_paxos.Footprint

let branch_fp = Footprint.of_keys [ "kv/k42"; "kv/k03"; "kv/k11" ]
let batch_fp = Footprint.of_keys (List.init 6 (fun i -> Printf.sprintf "kv/k%02d" ((i * 7) + 1)))
let moved = [ ("kv/m", Some "kv/p"); ("kv/x", None) ]

let test_fp_overlaps =
  Test.make ~name:"footprint: overlaps, 3 vs 6 keys"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Footprint.overlaps branch_fp batch_fp))))

let test_fp_hits_ranges =
  Test.make ~name:"footprint: hits_ranges, 3 keys vs 2 ranges"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (Footprint.hits_ranges branch_fp moved))))

(* The transport's read path: 64 KiB of frames with 16–512 byte
   payloads, fed to a fresh reader in random 1–1500 byte chunks (as
   non-blocking reads return them) and drained after every chunk. *)
module Framing = Grid_net.Framing
module Frame = Grid_codec.Frame

let stream, chunks =
  let rng = Random.State.make [| 7 |] in
  let b = Buffer.create 65536 in
  let frames = ref 0 in
  while Buffer.length b < 65536 do
    let payload = String.make (16 + Random.State.int rng 497) 'f' in
    let framed = Wire.with_crc payload in
    let len = String.length framed in
    String.iter (Buffer.add_char b)
      (String.init 4 (fun i -> Char.chr ((len lsr (8 * i)) land 0xFF)));
    Buffer.add_string b framed;
    incr frames
  done;
  let s = Buffer.contents b in
  let rec cut pos acc =
    if pos >= String.length s then List.rev acc
    else
      let n = min (1 + Random.State.int rng 1500) (String.length s - pos) in
      cut (pos + n) ((pos, n) :: acc)
  in
  ((s, !frames), cut 0 [])

let test_reader =
  let s, frames = stream in
  Test.make
    ~name:(Printf.sprintf "framing: reader, %d KiB in random chunks (%d frames)"
             (String.length s / 1024) frames)
    (Staged.stage (fun () ->
         let r = Framing.reader () in
         List.iter
           (fun (pos, n) ->
             Frame.feed r s pos n;
             let rec drain () =
               match Frame.next_frame r with Some (Ok _) -> drain () | _ -> ()
             in
             drain ())
           chunks))

let benchmark test =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ instance ] test in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      instance raw
  in
  results

(* Words one call allocates, over [runs] calls after one warm-up: all
   of them, and those in blocks over 256 words, which OCaml allocates
   straight in the major heap ([major_words - promoted_words], read
   after a minor collection and a major slice bring both up to date). *)
let words_per_call ?(runs = 1000) fn =
  let counters () =
    Gc.minor ();
    ignore (Gc.major_slice 0);
    let s = Gc.quick_stat () in
    (s.minor_words, s.major_words -. s.promoted_words)
  in
  fn ();
  let minor0, direct0 = counters () in
  for _ = 1 to runs do
    fn ()
  done;
  let minor1, direct1 = counters () in
  let per x = Printf.sprintf "%.0f" (x /. float runs) in
  (per (minor1 -. minor0 +. direct1 -. direct0), per (direct1 -. direct0))

let run ~quick:_ ~only =
  if only = None || only = Some "micro" then begin
    Experiment.section "micro — data-structure microbenchmarks (bechamel)";
    let table =
      Grid_util.Text_table.create
        ~columns:
          [
            ("Benchmark", Grid_util.Text_table.Left);
            ("ns/op", Grid_util.Text_table.Right);
            ("words/op", Grid_util.Text_table.Right);
            ("in blocks > 256 words", Grid_util.Text_table.Right);
          ]
    in
    List.iter
      (fun (test, fn) ->
        let words, direct =
          match fn with Some fn -> words_per_call fn | None -> ("", "")
        in
        let results = benchmark test in
        Hashtbl.iter
          (fun name ols ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> Printf.sprintf "%.1f" e
              | _ -> "n/a"
            in
            Grid_util.Text_table.add_row table [ name; estimate; words; direct ])
          results)
      [
        (test_encode_proposal, Some encode_proposal);
        (test_decode_proposal, Some decode_proposal);
        (test_v2_encode, Some v2_encode);
        (test_v2_decode, Some v2_decode);
        (test_crc, None);
        (test_heap, None);
        (test_plog_append, None);
        (test_snapshot, Some snapshot_roundtrip);
        (test_snapshot_kv, Some snapshot_kv);
        (test_watchdog_commit, Some watchdog_commit);
        (test_fp_overlaps, None);
        (test_fp_hits_ranges, None);
        (test_reader, None);
      ];
    print_string (Grid_util.Text_table.render table)
  end
