(* Tests for the semi-passive replication baseline (§5 related work):
   failure-free runs, coordinator rotation on suspicion, the ◇S locking
   rule, and randomized-schedule agreement. *)

module SP = Grid_paxos.Semi_passive.Make (Grid_services.Counter)
module Counter = Grid_services.Counter
module Ids = Grid_util.Ids
module Rng = Grid_util.Rng
open Grid_paxos.Types

(* A hand-driven harness in the style of Engine_harness, for the
   semi-passive engine. *)
module H = struct
  type t = {
    replicas : SP.t array;
    mutable pending : (int * int * msg) list;
    mutable timers : (int * timer) list;
    mutable replies : reply list;
    mutable now : float;
    mutable down : bool array;
  }

  let create ?(n = 3) () =
    let cfg = Grid_paxos.Config.make ~n ~record_history:true () in
    let replicas = Array.init n (fun i -> SP.create ~cfg ~id:i ~seed:(50 + i) ()) in
    {
      replicas;
      pending = [];
      timers = [];
      replies = [];
      now = 0.0;
      down = Array.make n false;
    }

  let absorb t i actions =
    List.iter
      (function
        | Send { dst; msg } ->
          if node_is_client dst then begin
            match msg with Reply_msg r -> t.replies <- r :: t.replies | _ -> ()
          end
          else t.pending <- t.pending @ [ (i, dst, msg) ]
        | After { timer; _ } -> t.timers <- t.timers @ [ (i, timer) ]
        | Note _ -> ())
      actions

  let feed t i input =
    if not t.down.(i) then absorb t i (SP.handle t.replicas.(i) ~now:t.now input)

  let deliver ?(filter = fun _ _ _ -> true) t =
    let rec split acc = function
      | [] -> None
      | ((src, dst, msg) as m) :: rest ->
        if filter src dst msg && not t.down.(dst) then
          Some (m, List.rev_append acc rest)
        else if t.down.(dst) then split acc rest (* dropped *)
        else split (m :: acc) rest
    in
    match split [] t.pending with
    | None -> false
    | Some ((src, dst, msg), rest) ->
      t.pending <- rest;
      feed t dst (Receive { src; msg });
      true

  let deliver_all ?filter t =
    let guard = ref 100_000 in
    while deliver ?filter t && !guard > 0 do
      decr guard
    done

  let fire t i want =
    let rec split acc = function
      | [] -> None
      | ((j, timer) as e) :: rest ->
        if j = i && want timer then Some (timer, List.rev_append acc rest)
        else split (e :: acc) rest
    in
    match split [] t.timers with
    | None -> false
    | Some (timer, rest) ->
      t.timers <- rest;
      feed t i (Timer timer);
      true

  let submit t ?(client = 1) ~seq op =
    let r : request =
      {
        id = Ids.Request_id.make ~client:(Ids.Client_id.of_int client) ~seq;
        rtype = Write;
        payload = Counter.encode_op op;
        trace = no_trace;
      }
    in
    Array.iteri (fun i _ -> feed t i (Receive { src = client_node r.id.client; msg = Client_req r })) t.replicas

  let take_replies t =
    let r = List.rev t.replies in
    t.replies <- [];
    r
end

let test_failure_free_run () =
  let t = H.create () in
  for seq = 1 to 5 do
    H.submit t ~seq (Counter.Add seq);
    H.deliver_all t
  done;
  Alcotest.(check int) "five replies" 5 (List.length (H.take_replies t));
  for i = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "replica %d decided all" i) 5
      (SP.decided_count t.replicas.(i));
    Alcotest.(check int) (Printf.sprintf "replica %d state" i) 15
      (SP.state t.replicas.(i))
  done;
  let histories = Array.map SP.committed_updates t.replicas in
  Alcotest.(check int) "agreement" 0
    (List.length (Grid_check.Agreement.check histories))

let test_malformed_op_dropped () =
  (* An op that does not decode used to raise out of the coordinator's
     [propose]. Every replica now drops it on arrival. *)
  let t = H.create () in
  let r : request =
    { id = Ids.Request_id.make ~client:(Ids.Client_id.of_int 1) ~seq:1;
      rtype = Write; payload = "\x07"; trace = no_trace }
  in
  Array.iteri
    (fun i _ -> H.feed t i (Receive { src = client_node r.id.client; msg = Client_req r }))
    t.replicas;
  H.deliver_all t;
  Alcotest.(check int) "no reply" 0 (List.length (H.take_replies t));
  H.submit t ~seq:2 (Counter.Add 3);
  H.deliver_all t;
  Alcotest.(check int) "next request decided" 1 (List.length (H.take_replies t));
  Array.iter
    (fun sp -> Alcotest.(check int) "one instance, the valid op" 3 (SP.state sp))
    t.replicas

let test_message_pattern () =
  (* Failure-free: propose (2) + acks (2) + decide (2) + 1 reply per
     request, like the basic protocol's accept round. *)
  let t = H.create () in
  H.submit t ~seq:1 (Counter.Add 1);
  let proposes = List.filter (fun (_, _, m) -> msg_kind m = "sp_propose") t.pending in
  Alcotest.(check int) "propose broadcast" 2 (List.length proposes);
  H.deliver_all t;
  Alcotest.(check int) "one reply" 1 (List.length (H.take_replies t))

let test_coordinator_rotation () =
  (* The round-0 coordinator (replica 0) is down: followers time out,
     report estimates to the round-1 coordinator (replica 1), which
     executes the request lazily and decides. *)
  let t = H.create () in
  t.down.(0) <- true;
  H.submit t ~seq:1 (Counter.Add 7);
  (* No progress without timeouts: *)
  H.deliver_all t;
  Alcotest.(check int) "no reply while r0 silent" 0 (List.length (H.take_replies t));
  (* Fire the round-0 suspicion timeouts on the two live replicas. *)
  t.now <- t.now +. 500.0;
  ignore (H.fire t 1 (function Sp_round_timeout (_, 0) -> true | _ -> false));
  ignore (H.fire t 2 (function Sp_round_timeout (_, 0) -> true | _ -> false));
  H.deliver_all t;
  (match H.take_replies t with
  | [ r ] ->
    Alcotest.(check int) "round-1 coordinator executed and replied" 7
      (Counter.decode_result r.payload)
  | l -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length l)));
  Alcotest.(check int) "r1 state" 7 (SP.state t.replicas.(1));
  Alcotest.(check int) "r2 state" 7 (SP.state t.replicas.(2))

let test_locking_rule () =
  (* ◇S safety: replica 1 acked the round-0 proposal (locking it). When
     round 1 runs, its coordinator must re-propose the LOCKED value, not
     execute afresh — even though its own counter execution would produce
     the same op here, the decided proposal must be the identical tuple. *)
  let t = H.create () in
  H.submit t ~seq:1 (Counter.Add 3);
  (* Deliver r0's proposal to r1 only; drop the one to r2 and all acks. *)
  ignore (H.deliver ~filter:(fun src dst m -> src = 0 && dst = 1 && msg_kind m = "sp_propose") t);
  t.pending <- [];
  (* r0 now "crashes". Rounds rotate. *)
  t.down.(0) <- true;
  t.now <- t.now +. 500.0;
  ignore (H.fire t 1 (function Sp_round_timeout (_, 0) -> true | _ -> false));
  ignore (H.fire t 2 (function Sp_round_timeout (_, 0) -> true | _ -> false));
  H.deliver_all t;
  (* Decided value must be r0's original execution: replica states match
     r0's proposal (counter 3), and exactly one reply went out. *)
  Alcotest.(check int) "r1 adopted the locked value" 3 (SP.state t.replicas.(1));
  Alcotest.(check int) "r2 agrees" 3 (SP.state t.replicas.(2));
  let histories = [| SP.committed_updates t.replicas.(1); SP.committed_updates t.replicas.(2) |] in
  Alcotest.(check int) "agreement" 0 (List.length (Grid_check.Agreement.check histories))

let test_duplicate_requests () =
  let t = H.create () in
  H.submit t ~seq:1 (Counter.Add 4);
  H.deliver_all t;
  ignore (H.take_replies t);
  H.submit t ~seq:1 (Counter.Add 4);
  H.deliver_all t;
  let replies = H.take_replies t in
  Alcotest.(check bool) "dedup answered" true (List.length replies >= 1);
  List.iter
    (fun (r : reply) ->
      Alcotest.(check int) "cached result" 4 (Counter.decode_result r.payload))
    replies;
  Alcotest.(check int) "executed once" 4 (SP.state t.replicas.(0));
  Alcotest.(check int) "one instance" 1 (SP.decided_count t.replicas.(0))

let test_randomized_agreement () =
  (* Random delivery orders and coordinator crashes across many seeds:
     agreement must always hold. *)
  let violations = ref 0 in
  for seed = 1 to 120 do
    let rng = Rng.of_int seed in
    let t = H.create () in
    for seq = 1 to 4 do
      H.submit t ~seq (Counter.Add seq)
    done;
    let crash_at = Rng.int rng 40 in
    for step = 0 to 600 do
      if step = crash_at then t.down.(0) <- true;
      (* Random choice: deliver a random pending message or fire a random
         timer. *)
      if t.pending <> [] && (t.timers = [] || Rng.int rng 4 < 3) then begin
        let k = Rng.int rng (List.length t.pending) in
        let msg = List.nth t.pending k in
        t.pending <- List.filteri (fun j _ -> j <> k) t.pending;
        let src, dst, m = msg in
        if not t.down.(dst) then H.feed t dst (Receive { src; msg = m })
      end
      else if t.timers <> [] then begin
        let live = List.filter (fun (i, _) -> not t.down.(i)) t.timers in
        if live <> [] then begin
          let k = Rng.int rng (List.length live) in
          let i, timer = List.nth live k in
          t.timers <- List.filter (fun e -> e != List.nth live k) t.timers;
          t.now <- t.now +. 200.0;
          H.feed t i (Timer timer)
        end
      end
    done;
    (* Drain deterministically. *)
    H.deliver_all t;
    let histories =
      Array.of_list
        (List.filteri (fun i _ -> not t.down.(i)) (Array.to_list t.replicas)
        |> List.map SP.committed_updates)
    in
    if Grid_check.Agreement.check histories <> [] then incr violations
  done;
  Alcotest.(check int) "no agreement violations across 120 schedules" 0 !violations

let suite =
  [
    ( "semi_passive",
      [
        Alcotest.test_case "failure-free run" `Quick test_failure_free_run;
        Alcotest.test_case "message pattern" `Quick test_message_pattern;
        Alcotest.test_case "malformed op dropped" `Quick test_malformed_op_dropped;
        Alcotest.test_case "coordinator rotation on suspicion" `Quick
          test_coordinator_rotation;
        Alcotest.test_case "◇S locking rule" `Quick test_locking_rule;
        Alcotest.test_case "duplicate requests" `Quick test_duplicate_requests;
        Alcotest.test_case "randomized agreement (120 schedules)" `Slow
          test_randomized_agreement;
      ] );
  ]
