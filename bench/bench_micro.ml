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

let test_encode_proposal =
  Test.make ~name:"codec: encode proposal"
    (Staged.stage (fun () ->
         ignore (Wire.encode (fun e -> Types.encode_proposal e sample_proposal))))

let test_decode_proposal =
  Test.make ~name:"codec: decode proposal"
    (Staged.stage (fun () -> ignore (Wire.decode encoded_proposal Types.decode_proposal)))

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

let test_snapshot =
  Test.make ~name:"snapshot: encode+decode"
    (Staged.stage
       (let snap =
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
        fun () ->
          ignore (Grid_paxos.Snapshot.decode (Grid_paxos.Snapshot.encode snap))))

(* Two sessions committing in order against a full table (the default
   65536 keys): every call remembers one key and evicts the oldest. *)
let test_watchdog_commit =
  Test.make ~name:"watchdog: record_commit, full table"
    (Staged.stage
       (let m = Grid_obs.Watchdog.monitor (Grid_obs.Watchdog.create ()) ~actor:"r0" in
        let next = ref 0 in
        let commit () =
          let k = !next in
          next := k + 1;
          Grid_obs.Watchdog.record_commit m ~client:(k land 1) ~seq:(k lsr 1) ~instance:k
        in
        for _ = 1 to 65536 do
          commit ()
        done;
        commit))

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
             Framing.feed r s pos n;
             let rec drain () =
               match Framing.next_frame r with Some (Ok _) -> drain () | _ -> ()
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

let run ~quick:_ ~only =
  if only = None || only = Some "micro" then begin
    Experiment.section "micro — data-structure microbenchmarks (bechamel)";
    let table =
      Grid_util.Text_table.create
        ~columns:[ ("Benchmark", Grid_util.Text_table.Left); ("ns/op", Grid_util.Text_table.Right) ]
    in
    List.iter
      (fun test ->
        let results = benchmark test in
        Hashtbl.iter
          (fun name ols ->
            let estimate =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> Printf.sprintf "%.1f" e
              | _ -> "n/a"
            in
            Grid_util.Text_table.add_row table [ name; estimate ])
          results)
      [
        test_encode_proposal;
        test_decode_proposal;
        test_crc;
        test_heap;
        test_plog_append;
        test_snapshot;
        test_watchdog_commit;
        test_fp_overlaps;
        test_fp_hits_ranges;
        test_reader;
      ];
    print_string (Grid_util.Text_table.render table)
  end
