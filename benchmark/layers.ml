(* The per-request layer budget, built from lifecycle spans.

   Spans come from the recorders each node was started with; the
   benchmark matches them to its own calls by request id (the k-th call
   on session s is request (s, k)) and cuts each request's latency into
   consecutive segments:

     call entry -> Client_send -> Leader_receive -> Apply
       writes: -> Propose -> Accept_quorum -> Commit -> Reply
       reads:  -> Reply
     Reply -> call return

   Because the segments are consecutive they add up to the call's
   latency, so the layer means can be checked against the measured mean
   (the closure check). Engine spans carry the time the engine step
   began, so work done inside one step lands in the segment that ends
   at the next step. *)

module Span = Grid_obs.Span

let segment_names =
  [| "client.submit_ms"; "net.to_leader_ms"; "replica.queue_ms"; "replica.ship_ms";
     "replica.quorum_ms"; "replica.commit_ms"; "net.to_client_ms"; "client.poll_ms" |]

let phase_slot : Span.phase -> int = function
  | Client_send -> 0
  | Leader_receive -> 1
  | Apply -> 2
  | Propose -> 3
  | Accept_quorum -> 4
  | Commit -> 5
  | Reply -> 6
  | Route | State_ship | Lease_local -> -1

(* First occurrence of each phase per request (client, seq). *)
let phase_times events =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (e : Span.event) ->
      match e.body with
      | Span { req; phase; _ } ->
        let slot = phase_slot phase in
        if slot >= 0 then begin
          let key = (Grid_util.Ids.Client_id.to_int req.client, req.seq) in
          let t =
            match Hashtbl.find_opt tbl key with
            | Some t -> t
            | None ->
              let t = Array.make 7 infinity in
              Hashtbl.add tbl key t;
              t
          in
          if e.time < t.(slot) then t.(slot) <- e.time
        end
      | Msg _ | Note _ -> ())
    events;
  tbl

(* A call as the benchmark saw it: times in ms on the spans' clock. *)
type call = { client : int; seq : int; entry : float; return : float }

type budget = {
  segments : (string * float * int) list;  (** name, mean over requests having it, count *)
  matched : int;  (** calls whose spans were all found *)
  calls : int;
  closure_pct : float;
      (** |sum of segment contributions - mean call latency| as a share
          of the mean call latency, over all calls *)
}

(* Calls reconstructed from the spans alone (the simulator, whose
   clients hand requests over and take replies back instantly). *)
let calls_of_spans tbl =
  Hashtbl.fold
    (fun (client, seq) t acc ->
      if Float.is_finite t.(0) && Float.is_finite t.(6) then
        { client; seq; entry = t.(0); return = t.(6) } :: acc
      else acc)
    tbl []

let budget ?calls events =
  let tbl = phase_times events in
  let calls = match calls with Some c -> c | None -> calls_of_spans tbl in
  let sums = Array.make 8 0.0 and counts = Array.make 8 0 in
  let matched = ref 0 and all_total = ref 0.0 and n = ref 0 in
  List.iter
    (fun c ->
      incr n;
      all_total := !all_total +. (c.return -. c.entry);
      match Hashtbl.find_opt tbl (c.client, c.seq) with
      | None -> ()
      | Some t ->
        let has i = Float.is_finite t.(i) in
        if has 0 && has 1 && has 2 && has 6 then begin
          let add i v =
            sums.(i) <- sums.(i) +. v;
            counts.(i) <- counts.(i) + 1
          in
          incr matched;
          add 0 (t.(0) -. c.entry);
          add 1 (t.(1) -. t.(0));
          add 2 (t.(2) -. t.(1));
          if has 3 && has 4 && has 5 then begin
            add 3 (t.(3) -. t.(2));
            add 4 (t.(4) -. t.(3));
            add 5 (t.(5) -. t.(4));
            add 6 (t.(6) -. t.(5))
          end
          else add 6 (t.(6) -. t.(2));
          add 7 (c.return -. t.(6))
        end)
    calls;
  let mean_all = if !n = 0 then nan else !all_total /. Float.of_int !n in
  let contributions =
    if !matched = 0 then nan else Array.fold_left ( +. ) 0.0 sums /. Float.of_int !matched
  in
  {
    segments =
      Array.to_list
        (Array.mapi
           (fun i name ->
             let mean = if counts.(i) = 0 then 0.0 else sums.(i) /. Float.of_int counts.(i) in
             (name, mean, counts.(i)))
           segment_names);
    matched = !matched;
    calls = !n;
    closure_pct = 100.0 *. Float.abs (contributions -. mean_all) /. mean_all;
  }
