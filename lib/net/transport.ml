open Grid_paxos.Types
module Rng = Grid_util.Rng
module Span = Grid_obs.Span
module Metrics = Grid_obs.Metrics
module Wire_codec = Grid_paxos.Wire_codec
module Meters = Net_meters
module Frame = Grid_codec.Frame

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Reconnect backoff: a peer that refused a dial is not redialed before a
   delay that doubles per consecutive failure, from [backoff_base_ms] up
   to [backoff_cap_ms], with jitter so a restarted replica is not hit by
   every peer in the same instant. Without this, a dead peer costs one
   connect syscall per outgoing message (heartbeats: every few ms). *)
let backoff_base_ms = 20.0
let backoff_cap_ms = 2000.0

(* A socket's state. A dial goes [Connecting] (non-blocking connect in
   flight), then [Awaiting_hello] (our hello queued, the listener's not
   yet in). An accepted socket goes [Sniffing] (HTTP or protocol?
   [deadline] is the sniff budget, infinite until the first byte), then
   [Hello_in] (waiting for the dialer's hello). Both end in [Ready] with
   the negotiated codec. An admin request goes [Http_request] (its line
   still arriving), then [Http_reply] (the answer queued; the socket
   closes once it has left). *)
type phase =
  | Connecting
  | Awaiting_hello
  | Sniffing of float
  | Hello_in
  | Ready of { version : int; codec : (module Framing.CODEC) }
  | Http_request
  | Http_reply

type conn = {
  fd : Unix.file_descr;
  mutable peer : int;  (* -1 on an accepted socket until its hello *)
  mutable phase : phase;
  rd : Frame.reader;
  wr : Framing.writer;
  held : msg Queue.t;  (* sent while this dial's handshake is in flight *)
  mutable closed : bool;
}

(* Bytes queued toward one socket past which new frames to it are
   dropped, and messages held per handshake in flight. A peer that
   stops reading costs at most this much memory; retransmission
   recovers the drops, as it does for an unreachable peer. *)
let send_queue_bound = 1 lsl 20
let max_held = 256

(* How long a short HTTP-like prefix may wait for the rest of its
   method name before it is trusted (ms). *)
let sniff_budget_ms = 50.0

(* ------------------------------------------------------------------ *)
(* The node: one loop thread [select]s over the wake pipe, the listener
   and every socket, and runs injected thunks, due timers, received
   frames and admin requests. Only it touches sockets, timers and
   [to_peer]. *)

(* Timers ordered by (due time, arming sequence number): timers due at
   the same instant fire first-armed first. *)
module Timer_heap = Grid_util.Heap.Make (struct
  type t = float * int * timer

  let compare (d1, s1, _) (d2, s2, _) =
    match Float.compare d1 d2 with 0 -> Int.compare s1 s2 | c -> c
end)

type t = {
  node_id : int;
  max_wire_version : int;  (* highest version advertised in hellos *)
  inbox : (unit -> action list) Mailbox.t;  (* injected work *)
  timers : Timer_heap.t;
  mutable timer_seq : int;
  mutable socks : conn list;  (* every open socket *)
  to_peer : (int, conn) Hashtbl.t;  (* the socket a peer's sends go to *)
  listener : Unix.file_descr option;
  mutable loop : Thread.t option;
  addresses : (int * Unix.sockaddr) list;
  (* peer -> (earliest next dial in ms, current backoff delay in ms) *)
  backoff : (int, float * float) Hashtbl.t;
  rng : Rng.t;  (* jitter *)
  obs : Span.Recorder.t;  (* spans timed on the wall clock (ms) *)
  actor : string;
  meters : Meters.t;
}

let listen port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  try
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  with e ->
    Unix.close fd;
    raise e

let create ?listen_port ?(obs = Span.Recorder.disabled)
    ?(max_wire_version = Wire_codec.latest_version) ~node_id ~actor ~addresses () =
  if max_wire_version < Wire_codec.min_version then
    invalid_arg "Transport.create: max_wire_version below min_version";
  (* A write to a peer that just closed must surface as the EPIPE every
     send path already handles, not as a signal that kills the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Bound before the wake pipe opens: a start that fails (a port in
     use) leaves nothing open. *)
  let listener = Option.map listen listen_port in
  let inbox =
    try Mailbox.create ()
    with e ->
      Option.iter Unix.close listener;
      raise e
  in
  {
    node_id;
    max_wire_version;
    inbox;
    timers = Timer_heap.create ();
    timer_seq = 0;
    socks = [];
    to_peer = Hashtbl.create 8;
    listener;
    loop = None;
    addresses;
    backoff = Hashtbl.create 8;
    rng = Rng.of_int (0x7cb1 + node_id);
    obs;
    actor;
    meters = Meters.make ~peers:(List.map fst addresses);
  }

let registry t = t.meters.registry
let max_wire_version t = t.max_wire_version

(* Every thunk [inject] accepts runs on the loop thread, before the loop
   exits if the node is stopping; once it is stopped, [inject] refuses. *)
let inject t thunk = Mailbox.post t.inbox thunk

(* Engine and socket state are confined to the loop thread, so an
   accessor called from another thread waits for an injected thunk. [f]
   runs before the mutex is taken, and what it raises goes back to the
   caller: the loop lives on, and no caller waits on a lock it holds. *)
let run_on_loop t f =
  let result = ref None in
  let m = Mutex.create () and c = Condition.create () in
  inject t (fun () ->
      let r = try Stdlib.Ok (f ()) with e -> Stdlib.Error e in
      Mutex.lock m;
      result := Some r;
      Condition.signal c;
      Mutex.unlock m;
      []);
  Mutex.lock m;
  while !result = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match Option.get !result with Stdlib.Ok v -> v | Stdlib.Error e -> raise e

let new_conn t fd ~peer phase =
  let c =
    { fd; peer; phase; rd = Framing.reader (); wr = Framing.writer ();
      held = Queue.create (); closed = false }
  in
  t.socks <- c :: t.socks;
  c

let ready_version c = match c.phase with Ready { version; _ } -> Some version | _ -> None
let dialing c = match c.phase with Connecting | Awaiting_hello -> true | _ -> false

(* The negotiated version per peer whose sends have a live connection. *)
let peer_versions t =
  Hashtbl.fold
    (fun p c acc -> match ready_version c with Some v -> (p, v) :: acc | None -> acc)
    t.to_peer []

(* Point [peer]'s sends at [c] (or nowhere) and refresh the gauges. *)
let route t peer c =
  (match c with
  | Some c -> Hashtbl.replace t.to_peer peer c
  | None -> Hashtbl.remove t.to_peer peer);
  Metrics.set t.meters.nm_conns (float_of_int (List.length (peer_versions t)));
  Meters.set_peer t.meters.nm_wire_version peer
    (match Option.bind c ready_version with Some v -> float_of_int v | None -> 0.0)

let note_corrupt t ~peer err =
  Metrics.inc t.meters.nm_decode_errors;
  if Span.Recorder.enabled t.obs then
    Span.Recorder.note t.obs ~time:(now_ms ()) ~actor:t.actor
      (Format.asprintf "drop conn to %d: %a" peer Framing.pp_read_error err)

(* A socket leaves [socks]. If [peer]'s sends went to it, they move to
   another established socket to that peer (a simultaneous dial leaves
   two), or the next send redials. *)
let forget t c =
  c.closed <- true;
  t.socks <- List.filter (fun c' -> c' != c) t.socks;
  if c.peer >= 0 then
    match Hashtbl.find_opt t.to_peer c.peer with
    | Some c' when c' == c ->
      route t c.peer
        (List.find_opt (fun c' -> c'.peer = c.peer && ready_version c' <> None) t.socks)
    | _ -> ()

let dial_failed t peer =
  Metrics.inc t.meters.nm_dial_failures;
  let prev = match Hashtbl.find_opt t.backoff peer with Some (_, d) -> d | None -> 0.0 in
  let next = Float.min backoff_cap_ms (Float.max backoff_base_ms (prev *. 2.0)) in
  (* Jitter in [next/2, next): consecutive retries stay spread out even
     when every peer noticed the death together. *)
  let wait = next *. (0.5 +. Rng.float t.rng 0.5) in
  Hashtbl.replace t.backoff peer (now_ms () +. wait, next);
  Meters.set_peer t.meters.nm_backoff peer next

(* Close [c]. A dial that dies before its handshake completes is a failed
   dial and puts the peer on backoff; an established connection going
   away is normal churn and the next send redials at once. *)
let drop t c =
  if not c.closed then begin
    forget t c;
    (try Unix.close c.fd with _ -> ());
    if dialing c then dial_failed t c.peer
  end

let queue_hello t c =
  ignore
    (Framing.add_frame c.wr (Framing.hello ~node_id:t.node_id ~max_version:t.max_wire_version))

(* Start a non-blocking dial to [peer]. Its hello is queued at once and
   leaves when the connect completes. *)
let dial t peer addr =
  Metrics.inc t.meters.nm_dials;
  match Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error _ ->
    dial_failed t peer;
    None
  | fd -> (
    let c = new_conn t fd ~peer Connecting in
    queue_hello t c;
    match
      Unix.set_nonblock fd;
      Unix.setsockopt fd TCP_NODELAY true;
      Unix.connect fd addr
    with
    | () ->
      c.phase <- Awaiting_hello;
      route t peer (Some c);
      Some c
    | exception Unix.Unix_error ((EINPROGRESS | EAGAIN | EINTR), _, _) ->
      route t peer (Some c);
      Some c
    | exception Unix.Unix_error _ ->
      drop t c;
      None)

(* The socket [peer]'s sends go to, dialing if there is none; None if the
   peer is unknown or still backing off after a failed dial. *)
let connection t peer =
  match Hashtbl.find_opt t.to_peer peer with
  | Some c -> Some c
  | None -> (
    match List.assoc_opt peer t.addresses with
    | None -> None
    | Some addr -> (
      match Hashtbl.find_opt t.backoff peer with
      | Some (not_before, _) when now_ms () < not_before -> None
      | _ -> dial t peer addr))

(* Queue [msg] on an established socket, unless its queue is over the
   bound. A lone frame larger than the bound still goes. *)
let enqueue t c codec msg =
  let module C = (val codec : Framing.CODEC) in
  let payload = C.encode msg in
  let queued = Framing.queued c.wr in
  if queued > 0 && queued + String.length payload + 8 > send_queue_bound then
    Metrics.inc t.meters.nm_send_dropped
  else
    Meters.count_msg t.meters ~sent:true msg (Framing.add_frame c.wr payload)

let send_msg t ~dst msg =
  if Span.Recorder.enabled t.obs then
    Span.Recorder.msg t.obs ~time:(now_ms ()) ~actor:t.actor ~kind:(msg_kind msg) ~dst;
  match connection t dst with
  | None -> ()  (* unreachable peer: retransmission recovers *)
  | Some ({ phase = Ready { codec; _ }; _ } as c) -> enqueue t c codec msg
  | Some c ->
    (* Held until the handshake settles the codec. *)
    if Queue.length c.held >= max_held then Metrics.inc t.meters.nm_send_dropped
    else Queue.add msg c.held

let arm_timer t ~due timer =
  t.timer_seq <- t.timer_seq + 1;
  Timer_heap.add t.timers (due, t.timer_seq, timer)

let run_actions t actions =
  List.iter
    (function
      | Send { dst; msg } -> send_msg t ~dst msg
      | After { delay; timer } -> arm_timer t ~due:(now_ms () +. delay) timer
      | Note s ->
        if Span.Recorder.enabled t.obs then
          Span.Recorder.note t.obs ~time:(now_ms ()) ~actor:t.actor s)
    actions

(* A bad hello or a version gap closes the socket: on the dialing side
   that is a failed dial, on the listening side a decode error, and the
   dialer sees EOF and backs off. *)
let handshake_failed t c err =
  if not (dialing c) then note_corrupt t ~peer:c.peer err;
  drop t c

(* Both ends of a handshake settle on min(local, peer). The dialer then
   encodes what it held with the negotiated codec; the listener answers
   with its own hello. *)
let handshake t c payload =
  match Framing.decode_hello payload with
  | Error err -> handshake_failed t c err
  | Ok (peer, peer_max) -> (
    if not (dialing c) then c.peer <- peer;
    match Wire_codec.negotiate ~local_max:t.max_wire_version ~peer_max with
    | None ->
      handshake_failed t c
        (Framing.Corrupt
           { pos = 0; msg = Printf.sprintf "no common wire version (peer max %d)" peer_max })
    | Some version ->
      let codec = Framing.codec version in
      if dialing c then begin
        Hashtbl.remove t.backoff c.peer;
        Meters.set_peer t.meters.nm_backoff c.peer 0.0;
        Queue.iter (enqueue t c codec) c.held;
        Queue.clear c.held
      end
      else queue_hello t c;
      c.phase <- Ready { version; codec };
      route t c.peer (Some c))

(* An admin socket's answer goes out through its output queue. *)
let reply c response =
  Framing.add_raw c.wr response;
  c.phase <- Http_reply

(* Parse everything [c] has buffered: the sniff, the hello, then protocol
   frames, each handed to [deliver] as it is parsed; or an admin
   request's line, answered from [routes] once it is complete. *)
let rec process t ~routes ~deliver c =
  if not c.closed then
    match c.phase with
    | Connecting | Http_reply -> ()
    | Sniffing deadline -> (
      match Admin_http.sniff (Frame.peek c.rd 4) with
      | `Protocol ->
        c.phase <- Hello_in;
        process t ~routes ~deliver c
      | `Http ->
        c.phase <- Http_request;
        process t ~routes ~deliver c
      | `Wait ->
        if deadline = Float.infinity then
          c.phase <- Sniffing (now_ms () +. sniff_budget_ms))
    | Http_request ->
      Option.iter
        (fun path -> reply c (Admin_http.answer routes path))
        (Admin_http.request_path (Frame.peek c.rd (Frame.buffered c.rd)))
    | Awaiting_hello | Hello_in -> (
      match Frame.next_frame c.rd with
      | None -> ()
      | Some (Ok payload) ->
        handshake t c payload;
        process t ~routes ~deliver c
      | Some (Error err) -> handshake_failed t c err)
    | Ready { codec; _ } -> (
      let module C = (val codec : Framing.CODEC) in
      match Option.map (fun r -> Result.bind r C.decode) (Frame.next_frame c.rd) with
      | None -> ()
      | Some (Ok (msg, bytes)) ->
        Meters.count_msg t.meters ~sent:false msg bytes;
        deliver c.peer msg;
        process t ~routes ~deliver c
      | Some (Error err) ->
        (* An unresynchronizable stream: count it, note it, drop the
           connection; the next send redials. *)
        note_corrupt t ~peer:c.peer err;
        drop t c)

(* One read per readable socket per round; EOF inside a frame counts as
   corruption, EOF between frames is a peer going away. *)
let read_conn t ~routes ~deliver c =
  match Framing.read_from c.rd c.fd with
  | 0 ->
    (match (c.phase, Frame.eof_error c.rd) with
    | (Ready _ | Hello_in), (Framing.Corrupt _ as err) -> note_corrupt t ~peer:c.peer err
    | _ -> ());
    drop t c
  | _ -> process t ~routes ~deliver c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t c

(* Write what [c] has queued; an admin socket closes once its answer
   has left. *)
let flush t c =
  match c.phase with
  | Connecting -> ()
  | _ -> (
    if (not c.closed) && Framing.queued c.wr > 0 then
      (try Framing.flush c.wr c.fd with Unix.Unix_error _ -> drop t c);
    match c.phase with Http_reply when Framing.queued c.wr = 0 -> drop t c | _ -> ())

let rec accept_all t listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
    (try
       Unix.set_nonblock fd;
       Unix.setsockopt fd TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    ignore (new_conn t fd ~peer:(-1) (Sniffing Float.infinity));
    accept_all t listener
  | exception Unix.Unix_error _ -> ()

(* The main loop: [handle] processes one input and returns actions. Each
   round runs the injected thunks and due timers, flushes every output
   queue, waits in [select], then reads each readable socket and handles
   its complete frames and admin requests. All of a round's sends leave
   in the next round's flush, after all of its inputs. *)
let event_loop t ~routes handle =
  let run input = run_actions t (handle ~now:(now_ms ()) input) in
  let deliver src msg = run (Receive { src; msg }) in
  (* Thunks wait here once taken, so those behind one that raises still
     run on the way out. *)
  let taken = Queue.create () in
  let run_thunks () =
    List.iter (fun thunk -> Queue.add thunk taken) (Mailbox.take t.inbox);
    while not (Queue.is_empty taken) do
      run_actions t (Queue.pop taken ())
    done
  in
  let rec fire_timers () =
    match Timer_heap.min_elt t.timers with
    | Some (d, _, timer) when d <= now_ms () ->
      ignore (Timer_heap.pop_min t.timers);
      run (Timer timer);
      fire_timers ()
    | _ -> ()
  in
  (* However the loop ends (a stop, or an exception: a handler that
     raises, [select] refusing a descriptor past [FD_SETSIZE]), the node
     refuses further work, every thunk [inject] accepted runs (their
     sends die with the sockets below; one that raises is skipped), so
     no [run_on_loop] caller waits forever, and the sockets close. An admin request caught by the stop
     is told so, and every admin answer gets one last non-blocking
     write. The exception still ends the thread. *)
  let shutdown () =
    Mailbox.close t.inbox;
    let rec drain () = try run_thunks () with _ -> drain () in
    drain ();
    List.iter
      (fun c ->
        (match c.phase with Http_request -> reply c Admin_http.stopped | _ -> ());
        match c.phase with Http_reply -> flush t c | _ -> ())
      t.socks;
    List.iter (fun c -> try Unix.close c.fd with _ -> ()) t.socks;
    t.socks <- [];
    Option.iter (fun l -> try Unix.close l with _ -> ()) t.listener
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  while not (Mailbox.closed t.inbox) do
    run_thunks ();
    fire_timers ();
    List.iter (flush t) t.socks;
    let now = now_ms () in
    let reads = ref [ Mailbox.fd t.inbox ] and writes = ref [] and queue_max = ref 0 in
    let next_due = ref (now +. 100.0) in
    (match Timer_heap.min_elt t.timers with
    | Some (d, _, _) -> next_due := Float.min !next_due d
    | None -> ());
    Option.iter (fun l -> reads := l :: !reads) t.listener;
    List.iter
      (fun c ->
        let queued = Framing.queued c.wr in
        queue_max := max !queue_max queued;
        match c.phase with
        | Connecting | Http_reply -> writes := c.fd :: !writes
        | Sniffing deadline ->
          next_due := Float.min !next_due deadline;
          reads := c.fd :: !reads
        | _ ->
          if queued > 0 then writes := c.fd :: !writes;
          reads := c.fd :: !reads)
      t.socks;
    Metrics.set t.meters.nm_queue_max (float_of_int !queue_max);
    let socks = t.socks in
    let timeout = Float.max 0.0 ((!next_due -. now) /. 1000.0) in
    match Unix.select !reads !writes [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem (Mailbox.fd t.inbox) readable then Mailbox.drain t.inbox;
      Option.iter (fun l -> if List.mem l readable then accept_all t l) t.listener;
      List.iter
        (fun c ->
          (match c.phase with
          | Connecting when (not c.closed) && List.mem c.fd writable -> (
            match Unix.getsockopt_error c.fd with
            | None -> c.phase <- Awaiting_hello
            | Some _ -> drop t c)
          | _ -> ());
          if (not c.closed) && List.mem c.fd readable then read_conn t ~routes ~deliver c)
        socks;
      let now = now_ms () in
      List.iter
        (fun c ->
          match c.phase with
          | Sniffing deadline when deadline <= now -> c.phase <- Http_request
          | _ -> ())
        t.socks
  done

let start t ?(routes = fun _ -> None) handle =
  t.loop <- Some (Thread.create (fun () -> event_loop t ~routes handle) ())

(* Stop a node and release what it holds: its loop closes the sockets
   and the listener on the way out, then the wake pipe goes. Without
   that close every node leaks two fds, and a process that churns nodes
   keeps growing its fd table, which Linux does by waiting out an RCU
   grace period with every thread stalled. *)
let stop t =
  Mailbox.close t.inbox;
  Option.iter (fun loop -> try Thread.join loop with _ -> ()) t.loop;
  Mailbox.release t.inbox;
  Meters.release t.meters
