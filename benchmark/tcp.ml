(* The loopback TCP workloads: three replicas of the key-value store
   and their client sessions, all in this process, talking over
   127.0.0.1 exactly as bin/replica.exe and bin/client.exe do.

   Load comes from at most two session threads. Each owns one client
   session (one connection per replica, since clients broadcast every
   request) and calls the synchronous [call_op], so a closed loop is
   the natural shape; the failover workload instead dispatches each
   request at a seeded Poisson time and times it from then. *)

module Kv = Timed.Kv
module Tcp = Grid_net.Tcp_node.Make (Kv)
module Span = Grid_obs.Span
module Json = Grid_obs.Json
module Rng = Grid_util.Rng
module Check = Gridbench.Check
module Pct = Gridbench.Pct

let now = Probe.now
let metric = Report.metric
let timeout_s = 5.0
let sessions_n = 2
let preload_sessions = 8
let trace_capacity = 1 lsl 20

(* bin/replica.exe's protocol timeouts, so elections and retransmissions
   run on a deployed cluster's clock. Leases stay off (lease_ms = 0):
   reads take the X-Paxos confirm round. *)
let config =
  Grid_paxos.Config.make ~n:3 ~hb_period_ms:50.0 ~suspicion_ms:300.0 ~stability_ms:100.0
    ~accept_retry_ms:100.0 ()

let key_name k = Printf.sprintf "k%04d" k
let pad s = Printf.sprintf "%-32s" s
let initial_value k = pad (Printf.sprintf "init.%d" k)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* Ports the kernel just handed out; closed again before the replicas
   bind them (start_replica sets SO_REUSEADDR). *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.bind s (ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s -> match Unix.getsockname s with ADDR_INET (_, p) -> p | _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  ports

(* ------------------------------------------------------------------ *)
(* Cluster and sessions *)

type cluster = {
  handles : Tcp.replica_handle array;
  live : bool array;
  addrs : (int * Unix.sockaddr) list;
  paths : string array;  (* storage path prefix per replica *)
  traced : bool;
  mutable recorders : Span.Recorder.t list;  (* one per node, traced runs only *)
}

let recorder c =
  if c.traced then begin
    let r = Span.Recorder.create ~capacity:trace_capacity ~enabled:true () in
    c.recorders <- r :: c.recorders;
    Some r
  end
  else None

let boot ~dir ~traced =
  mkdir_p dir;
  let ports = Array.of_list (free_ports 3) in
  let addrs =
    List.init 3 (fun i -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i))))
  in
  let paths = Array.init 3 (fun i -> Filename.concat dir (Printf.sprintf "r%d" i)) in
  let c = { handles = [||]; live = Array.make 3 true; addrs; paths; traced; recorders = [] } in
  let handles =
    Array.init 3 (fun i ->
        let store, _, _ = Grid_paxos.Storage.file ~path:paths.(i) in
        let storage = if traced then Timed.storage store else store in
        Tcp.start_replica ~cfg:config ~id:i ~port:ports.(i)
          ~peers:(List.filter (fun (j, _) -> j <> i) addrs)
          ~storage ?obs:(recorder c) ())
  in
  { c with handles }

let live_ids c = List.filter (fun i -> c.live.(i)) [ 0; 1; 2 ]

let leader c =
  List.find_opt (fun i -> Tcp.replica_is_leader c.handles.(i)) (live_ids c)

(* Poll every 5 ms, as a client watching /health would. *)
let await_leader c ~within =
  let deadline = now () +. within in
  let rec go () =
    match leader c with
    | Some i -> i
    | None ->
      if now () > deadline then failwith "no leader elected";
      Thread.delay 0.005;
      go ()
  in
  go ()

let crash c i =
  Tcp.stop_replica c.handles.(i);
  c.live.(i) <- false

type session = { sid : int; client : Tcp.client_handle; mutable seq : int }

let connect c ~sid =
  { sid; client = Tcp.start_client ~id:sid ~replicas:c.addrs ?obs:(recorder c) (); seq = 0 }

(* One call as seen by the caller; times in seconds. *)
type call = {
  sid : int;
  seq : int;  (** the k-th call on session [sid] is request (sid, k) *)
  key : int;
  put : string option;  (** the value a put wrote; [None] for a get *)
  due : float;  (** when the call was due (= [start] in a closed loop) *)
  start : float;
  finish : float;
  ok : bool;  (** answered [Ok] by the request it was sent as *)
  got : string option;  (** a get's answer *)
}

let call ?due (s : session) ~key ~put =
  s.seq <- s.seq + 1;
  let op =
    match put with
    | Some value -> Grid_services.Kv_store.Put { key = key_name key; value }
    | None -> Grid_services.Kv_store.Get (key_name key)
  in
  let start = now () in
  let reply = Tcp.call_op s.client op ~timeout_s in
  let finish = now () in
  let ok, got =
    match reply with
    | Some { status = Grid_paxos.Types.Ok; req; payload }
      when req.seq = s.seq && Grid_util.Ids.Client_id.to_int req.client = s.sid -> (
      match (Kv.decode_result payload, put) with
      | Value v, None -> (true, v)
      | Unit, Some _ -> (true, None)
      | _ -> (false, None))
    | _ -> (false, None)
  in
  { sid = s.sid; seq = s.seq; key; put; due = Option.value due ~default:start; start; finish;
    ok; got }

(* Write every key's initial value through short-lived sessions, so the
   checker knows each key's starting point and large stores are full
   before the clock starts. *)
let preload c ~keys =
  let failed = Atomic.make false in
  let workers =
    List.init preload_sessions (fun j ->
        Thread.create
          (fun () ->
            let s = connect c ~sid:(100 + j) in
            let k = ref j in
            while !k < keys && not (Atomic.get failed) do
              if not (call s ~key:!k ~put:(Some (initial_value !k))).ok then Atomic.set failed true;
              k := !k + preload_sessions
            done;
            Tcp.stop_client s.client)
          ())
  in
  List.iter Thread.join workers;
  if Atomic.get failed then failwith "preload: a put failed"

(* Set-up: boot, elect, preload, connect the load sessions. *)
let setup ~dir ~traced ~keys =
  let t0 = now () in
  let c = boot ~dir ~traced in
  ignore (await_leader c ~within:10.0);
  preload c ~keys;
  let sessions = Array.init sessions_n (fun sid -> connect c ~sid) in
  (c, sessions, now () -. t0)

let teardown c sessions ~dir =
  Array.iter (fun s -> Tcp.stop_client s.client) sessions;
  List.iter (fun i -> crash c i) (live_ids c);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Readings taken at window edges *)

let registry_counters reg =
  match Grid_obs.Metrics.to_json reg with
  | Json.Obj kvs ->
    List.filter_map
      (fun (name, v) ->
        Option.map (fun f -> (name, f)) (Option.bind (Json.member "value" v) Json.to_float))
      kvs
  | _ -> []

(* Transport counters summed over every node of the cluster. *)
let net_counters c sessions =
  let regs =
    Array.to_list (Array.map Tcp.replica_metrics c.handles)
    @ Array.to_list (Array.map (fun s -> Tcp.client_metrics s.client) sessions)
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun reg ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
        (registry_counters reg))
    regs;
  tbl

let log_bytes c =
  Array.fold_left
    (fun acc p -> try acc + (Unix.stat (p ^ ".log")).st_size with Unix.Unix_error _ -> acc)
    0 c.paths

type reading = {
  at : float;
  cpu : float;
  net : (string, float) Hashtbl.t;
  service : (string * Timed.reading) list;
  storage : (string * Timed.reading) list;
  commit_point : int;  (* highest among live replicas: the leader's *)
  log : int;
}

let reading c sessions =
  {
    at = now ();
    cpu = Probe.cpu_s ();
    net = net_counters c sessions;
    service = Timed.read_all Timed.service_hooks;
    storage = Timed.read_all Timed.storage_hooks;
    commit_point =
      List.fold_left (fun m i -> max m (Tcp.replica_commit_point c.handles.(i))) 0 (live_ids c);
    log = log_bytes c;
  }

let watchdog_violations c =
  Array.fold_left
    (fun acc r -> acc + Grid_obs.Watchdog.violations (Tcp.replica_watchdog r))
    0 c.handles

let net_delta r0 r1 name =
  let get r = Option.value ~default:0.0 (Hashtbl.find_opt r.net name) in
  get r1 -. get r0

(* ------------------------------------------------------------------ *)
(* Output checks *)

let history ~keys calls : Check.history =
  let puts = Array.make keys [] in
  List.iter
    (fun c ->
      match c.put with
      | Some value ->
        puts.(c.key) <-
          { Check.value; issued = c.start; returned = c.finish; acked = c.ok } :: puts.(c.key)
      | None -> ())
    calls;
  {
    initial = Array.init keys (fun k -> Some (initial_value k));
    puts = Array.map (fun l -> Array.of_list (List.rev l)) puts;
    gets =
      List.filter_map
        (fun c ->
          if c.put = None && c.ok then
            Some { Check.key = c.key; g_issued = c.start; g_returned = c.finish; got = c.got }
          else None)
        calls;
  }

(* After the load stops: the live replicas must reach one commit point
   and hold byte-equal state, the keys must pass the final-state rule,
   and no watchdog or decoder may have fired anywhere. [calls] holds
   each session's calls in program order. *)
let check_outputs c sessions ~keys calls =
  let live = live_ids c in
  let deadline = now () +. 5.0 in
  let rec converge () =
    let points = List.map (fun i -> Tcp.replica_commit_point c.handles.(i)) live in
    match List.sort_uniq compare points with
    | [ _ ] -> true
    | _ when now () > deadline -> false
    | _ ->
      Thread.delay 0.01;
      converge ()
  in
  let converged = converge () in
  let states = List.map (fun i -> Tcp.replica_state c.handles.(i)) live in
  let encoded = List.sort_uniq compare (List.map Kv.encode_state states) in
  let h = history ~keys calls in
  let state = List.hd states in
  let watchdog = watchdog_violations c in
  let decode_errors =
    Option.value ~default:0.0
      (Hashtbl.find_opt (net_counters c sessions) "grid_net_decode_errors_total")
  in
  (if converged then [] else [ "live replicas did not reach one commit point" ])
  @ (if List.length encoded = 1 then [] else [ "live replicas hold different states" ])
  @ (if watchdog = 0 then [] else [ Printf.sprintf "%d watchdog violations" watchdog ])
  @ (if decode_errors = 0.0 then [] else [ Printf.sprintf "%.0f decode errors" decode_errors ])
  @ Check.final h (fun k -> Grid_services.Kv_store.find state (key_name k))
  @ Check.reads h

(* ------------------------------------------------------------------ *)
(* Metrics shared by both TCP workloads *)

let latencies_ms calls ~from =
  Array.of_list (List.map (fun c -> (c.finish -. from c) *. 1000.0) calls)

let failures calls = List.length (List.filter (fun c -> not c.ok) calls)

(* Per-layer numbers of a traced window [r0, r1] over the given calls. *)
let layer_metrics c ~name ~results_dir ~calls ~completed ~writes r0 r1 =
  let events = List.concat_map Span.Recorder.events c.recorders in
  let spans =
    List.filter (fun (e : Span.event) -> match e.body with Span _ -> true | _ -> false) events
  in
  Span.dump_file
    (Filename.concat results_dir ("trace-" ^ name ^ ".jsonl"))
    (List.stable_sort (fun (a : Span.event) b -> Float.compare a.time b.time) spans);
  let budget =
    Layers.budget spans
      ~calls:
        (List.map
           (fun c ->
             { Layers.client = c.sid; seq = c.seq; entry = c.start *. 1000.0;
               return = c.finish *. 1000.0 })
           calls)
  in
  let per_op x = if completed = 0 then 0.0 else x /. Float.of_int completed in
  let lat = Pct.sorted (latencies_ms calls ~from:(fun c -> c.start)) in
  let kinds =
    List.filter_map
      (fun kind ->
        (* Per-kind counters see each message twice: at the sender and
           at the receiver. *)
        let b = net_delta r0 r1 ("grid_net_bytes_total_" ^ kind) /. 2.0 in
        if b > 0.0 then Some (metric ("net.bytes_per_op." ^ kind) "B" (per_op b)) else None)
      Grid_paxos.Types.all_msg_kinds
  in
  let in_window (e : Span.event) = e.time >= r0.at *. 1000.0 && e.time <= r1.at *. 1000.0 in
  List.map (fun (n, v, _) -> metric n "ms" v) budget.segments
  @ [ metric "client.lat_p99_ms" "ms" (Pct.at lat 99.0);
      metric "client.lat_p99_n" "count" (Float.of_int (Array.length lat));
      metric "net.msgs_per_op" "count" (per_op (net_delta r0 r1 "grid_net_messages_sent_total"));
      metric "net.bytes_per_op" "B" (per_op (net_delta r0 r1 "grid_net_bytes_sent_total"));
      metric "net.decode_errors" "count" (net_delta r0 r1 "grid_net_decode_errors_total");
      metric "net.dials" "count" (net_delta r0 r1 "grid_net_dials_total");
      metric "replica.ops_per_instance" "count"
        (Probe.per writes (r1.commit_point - r0.commit_point));
      metric "replica.watchdog_violations" "count" (Float.of_int (watchdog_violations c));
      metric "storage.log_bytes_per_op" "B" (per_op (Float.of_int (r1.log - r0.log)));
      metric "obs.events_per_op" "count"
        (per_op (Float.of_int (List.length (List.filter in_window events))));
      metric "obs.closure_pct" "%" budget.closure_pct;
      metric "obs.matched_share" "ratio" (Probe.per budget.matched budget.calls) ]
  @ kinds
  @ Probe.service_metrics (Timed.delta_all r0.service r1.service) ~ops:completed
      ~wall_s:(r1.at -. r0.at)
  @ Probe.storage_metrics (Timed.delta_all r0.storage r1.storage) ~ops:completed

(* ------------------------------------------------------------------ *)
(* Closed-loop workloads: write_small, write_large, read_mostly *)

(* Key k belongs to session k mod [sessions_n]. *)
let owned_key rng ~keys (s : session) = (sessions_n * Rng.int rng (keys / sessions_n)) + s.sid

let closed_loop (s : session) ~rng ~keys ~read_frac ~until =
  let calls = ref [] and puts = ref 0 in
  while now () < until do
    let c =
      if read_frac > 0.0 && Rng.float rng 1.0 < read_frac then
        call s ~key:(Rng.int rng keys) ~put:None
      else begin
        incr puts;
        call s
          ~key:(owned_key rng ~keys s)
          ~put:(Some (pad (Printf.sprintf "s%d.%d" s.sid !puts)))
      end
    in
    calls := c :: !calls
  done;
  List.rev !calls

(* Throughput and CPU per operation over the window's one-second
   slices, as interquartile means ({!Pct.iq_mean}). [marks] are (time,
   CPU seconds) at the slice edges. *)
let sliced finished marks =
  let rec go = function
    | (t0, c0) :: ((t1, c1) :: _ as rest) ->
      let n = List.length (List.filter (fun c -> c.finish >= t0 && c.finish < t1) finished) in
      (Float.of_int n /. (t1 -. t0), (c1 -. c0) *. 1000.0 /. Float.of_int (max 1 n)) :: go rest
    | _ -> []
  in
  let tput, cpu = List.split (go marks) in
  (Pct.iq_mean (Array.of_list tput), Pct.iq_mean (Array.of_list cpu))

let steady ~name ~keys ~read_frac ~seed ~traced ~window_s ~warmup_s ~setup_reps ~dir
    ~results_dir =
  let setup_times = ref [] in
  let rec setups r =
    let sub = Filename.concat dir (Printf.sprintf "setup%d" r) in
    let c, sessions, dt = setup ~dir:sub ~traced ~keys in
    setup_times := dt :: !setup_times;
    if r + 1 < setup_reps then begin
      teardown c sessions ~dir:sub;
      (* The next set-up's peak memory must not include this cluster. *)
      Gc.compact ();
      setups (r + 1)
    end
    else (c, sessions, sub)
  in
  let c, sessions, sub = setups 0 in
  let ws = now () +. warmup_s in
  let we = ws +. window_s in
  let per_session = Array.make sessions_n [] in
  let threads =
    Array.map
      (fun (s : session) ->
        Thread.create
          (fun () ->
            per_session.(s.sid) <-
              closed_loop s ~rng:(Rng.of_int ((seed * 1000) + s.sid)) ~keys ~read_frac ~until:we)
          ())
      sessions
  in
  Probe.sleep_until ws;
  let r0 = reading c sessions in
  let slices = max 1 (Float.to_int (Float.round window_s)) in
  let marks =
    (r0.at, r0.cpu)
    :: List.init slices (fun i ->
           Probe.sleep_until (ws +. (window_s *. Float.of_int (i + 1) /. Float.of_int slices));
           (now (), Probe.cpu_s ()))
  in
  let r1 = reading c sessions in
  Array.iter Thread.join threads;
  let calls = List.concat (Array.to_list per_session) in
  let violations = check_outputs c sessions ~keys calls in
  let started = List.filter (fun c -> c.start >= r0.at && c.start < r1.at) calls in
  let finished = List.filter (fun c -> c.finish >= r0.at && c.finish <= r1.at && c.ok) calls in
  let completed = List.length finished in
  let lat = Pct.sorted (latencies_ms started ~from:(fun c -> c.start)) in
  let tput, cpu = sliced finished marks in
  let e2e =
    [ metric "setup_s" "s" (Pct.median (Array.of_list !setup_times));
      metric "tput_rps" "ops/s" tput;
      metric "lat_p50_ms" "ms" (Pct.at lat 50.0);
      metric "lat_p90_ms" "ms" (Pct.at lat 90.0);
      metric "cpu_ms_per_op" "ms" cpu;
      metric "fail_frac" "ratio" (Probe.per (failures calls) (List.length calls)) ]
  in
  let layers =
    if traced then
      let writes = List.length (List.filter (fun c -> c.put <> None) finished) in
      layer_metrics c ~name ~results_dir ~calls:started ~completed ~writes r0 r1
    else []
  in
  teardown c sessions ~dir:sub;
  {
    Report.workload = name;
    traced;
    attempted = List.length calls;
    failed = failures calls;
    violations;
    metrics = e2e @ layers;
  }

(* ------------------------------------------------------------------ *)
(* failover *)

let rate_per_session = 100.0 (* requests/s; 200 over the two sessions *)
let crash_after_s = 1.0
let episode_s = 3.0

(* Dispatch each put at its due time (or as soon as the session is free
   again, when a stall has queued requests behind it). *)
let open_loop (s : session) ~rng ~t0 =
  let rec arrivals t acc =
    let t = t +. Rng.exponential rng ~mean:(1.0 /. rate_per_session) in
    if t >= episode_s then List.rev acc else arrivals t (t :: acc)
  in
  let puts = ref 0 in
  List.map
    (fun d ->
      let due = t0 +. d in
      Probe.sleep_until due;
      incr puts;
      call s ~due ~key:(owned_key rng ~keys:64 s)
        ~put:(Some (pad (Printf.sprintf "s%d.%d" s.sid !puts))))
    (arrivals 0.0 [])

type episode = {
  e_setup : float;
  e_calls : call list;
  e_unavail : float;  (* ms *)
  e_detect : float;  (* ms *)
  e_resume : float;  (* ms *)
  e_cpu : float;  (* s *)
  e_wall : float;  (* s *)
  e_violations : string list;
  e_layers : Report.metric list;
}

let episode ~seed ~traced ~dir ~results_dir k =
  let c, sessions, setup_dt = setup ~dir ~traced ~keys:64 in
  let t0 = now () +. 0.01 in
  let per_session = Array.make sessions_n [] in
  let threads =
    Array.map
      (fun (s : session) ->
        Thread.create
          (fun () ->
            per_session.(s.sid) <-
              open_loop s ~rng:(Rng.of_int ((seed * 1000) + (10 * k) + s.sid)) ~t0)
          ())
      sessions
  in
  Probe.sleep_until t0;
  let r0 = reading c sessions in
  Probe.sleep_until (t0 +. crash_after_s);
  let old = await_leader c ~within:2.0 in
  let crashed_at = now () in
  crash c old;
  let detected_at = (ignore (await_leader c ~within:10.0); now ()) in
  Array.iter Thread.join threads;
  let r1 = reading c sessions in
  let calls = List.concat (Array.to_list per_session) in
  let violations = check_outputs c sessions ~keys:64 calls in
  let done_at =
    List.sort Float.compare
      (List.filter_map
         (fun c -> if c.ok && c.finish >= crashed_at then Some c.finish else None)
         calls)
  in
  let unavail =
    fst
      (List.fold_left
         (fun (worst, prev) t -> (Float.max worst (t -. prev), t))
         (0.0, crashed_at) done_at)
  in
  let resume =
    match List.find_opt (fun t -> t >= detected_at) done_at with
    | Some t -> t -. detected_at
    | None -> nan
  in
  let layers =
    if traced then
      let completed = List.length (List.filter (fun c -> c.ok) calls) in
      layer_metrics c ~name:"failover" ~results_dir ~calls ~completed ~writes:completed r0
        r1
    else []
  in
  teardown c sessions ~dir;
  {
    e_setup = setup_dt;
    e_calls = calls;
    e_unavail = unavail *. 1000.0;
    e_detect = (detected_at -. crashed_at) *. 1000.0;
    e_resume = resume *. 1000.0;
    e_cpu = r1.cpu -. r0.cpu;
    e_wall = r1.at -. r0.at;
    e_violations =
      (if done_at = [] then [ "no request completed after the leader crashed" ] else [])
      @ violations;
    e_layers = layers;
  }

(* Layer metrics of the episodes: the median of each. *)
let median_metrics per_episode =
  match per_episode with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (m : Report.metric) ->
        let value_in ms =
          Option.map
            (fun (x : Report.metric) -> x.value)
            (List.find_opt (fun (x : Report.metric) -> x.name = m.name) ms)
        in
        let values = Array.of_list (List.filter_map value_in per_episode) in
        { m with value = Pct.median values })
      first

let failover ~seed ~traced ~episodes ~dir ~results_dir =
  let eps =
    List.init episodes (fun k ->
        let e =
          let dir = Filename.concat dir (Printf.sprintf "episode%d" k) in
          episode ~seed ~traced ~dir ~results_dir k
        in
        Gc.compact ();
        e)
  in
  let calls = List.concat_map (fun e -> e.e_calls) eps in
  let ok_calls e = List.length (List.filter (fun c -> c.ok) e.e_calls) in
  let med f = Pct.median (Array.of_list (List.map f eps)) in
  let lat = Pct.sorted (latencies_ms calls ~from:(fun c -> c.due)) in
  let e2e =
    [ metric "setup_s" "s" (med (fun e -> e.e_setup));
      metric "tput_rps" "ops/s" (med (fun e -> Float.of_int (ok_calls e) /. e.e_wall));
      metric "lat_p50_ms" "ms" (Pct.at lat 50.0);
      metric "lat_p90_ms" "ms" (Pct.at lat 90.0);
      metric "cpu_ms_per_op" "ms"
        (med (fun e -> e.e_cpu *. 1000.0 /. Float.of_int (max 1 (ok_calls e))));
      metric "unavail_ms" "ms" (med (fun e -> e.e_unavail));
      metric "fail_frac" "ratio" (Probe.per (failures calls) (List.length calls)) ]
  in
  let layers =
    if traced then
      let late =
        Pct.sorted (Array.of_list (List.map (fun c -> (c.start -. c.due) *. 1000.0) calls))
      in
      median_metrics (List.map (fun e -> e.e_layers) eps)
      @ [ metric "failover.detect_ms" "ms" (med (fun e -> e.e_detect));
          metric "failover.resume_ms" "ms" (med (fun e -> e.e_resume));
          metric "gen.late_ms" "ms" (Pct.at late 99.0) ]
    else []
  in
  {
    Report.workload = "failover";
    traced;
    attempted = List.length calls;
    failed = failures calls;
    violations = List.concat_map (fun e -> e.e_violations) eps;
    metrics = e2e @ layers;
  }
