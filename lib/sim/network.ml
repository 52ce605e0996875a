module Rng = Grid_util.Rng

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  delayed : int;
}

type 'msg node = {
  mutable handler : src:int -> 'msg -> unit;
  mutable recv_cost : float;
  mutable send_cost : float;
  mutable busy_until : float; (* serial-CPU timeline *)
  mutable up : bool;
}

type 'msg t = {
  eng : Engine.t;
  rng : Rng.t;
  nodes : (int, 'msg node) Hashtbl.t;
  links : (int * int, Latency.t) Hashtbl.t;
  mutable default_latency : Latency.t;
  last_delivery : (int * int, float) Hashtbl.t; (* FIFO clamp per pair *)
  cuts : (int * int, unit) Hashtbl.t;
  mutable drop_rate : float;
  mutable duplicate_rate : float;
  mutable reorder_rate : float;
  mutable spike_rate : float;
  mutable spike_magnitude : float; (* extra latency (ms) on a spiked hop *)
  mutable bandwidth : float;  (* bytes/ms; infinity = size-free links *)
  mutable sizer : ('msg -> int) option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
}

let create eng rng =
  {
    eng;
    rng;
    nodes = Hashtbl.create 32;
    links = Hashtbl.create 64;
    default_latency = Latency.Constant 0.1;
    last_delivery = Hashtbl.create 64;
    cuts = Hashtbl.create 16;
    drop_rate = 0.0;
    duplicate_rate = 0.0;
    reorder_rate = 0.0;
    spike_rate = 0.0;
    spike_magnitude = 0.0;
    bandwidth = infinity;
    sizer = None;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    delayed = 0;
  }

let engine t = t.eng

let add_node t ~id ?(recv_cost = 0.0) ?(send_cost = 0.0) handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Network.add_node: duplicate id";
  Hashtbl.replace t.nodes id
    { handler; recv_cost; send_cost; busy_until = 0.0; up = true }

let get_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Network: unknown node %d" id)

let set_default_latency t m = t.default_latency <- m
let set_link t ~src ~dst m = Hashtbl.replace t.links (src, dst) m

let set_link_sym t a b m =
  set_link t ~src:a ~dst:b m;
  set_link t ~src:b ~dst:a m

let latency_of_link t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some m -> m
  | None -> t.default_latency

let partitioned t src dst =
  Hashtbl.mem t.cuts (src, dst)

let drop t = t.dropped <- t.dropped + 1

(* Occupy [node]'s serial CPU for [cost] starting no earlier than [at];
   returns the completion time. *)
let occupy node ~at ~cost =
  let start = if node.busy_until > at then node.busy_until else at in
  node.busy_until <- start +. cost;
  node.busy_until

(* Schedule one physical delivery of [msg] at [arrival]; the receiver's
   CPU cost is paid (serially) at arrival time. *)
let deliver_copy t ~src ~arrival receiver msg =
  ignore
    (Engine.schedule_at t.eng ~time:arrival (fun () ->
         if receiver.up then begin
           let done_at =
             occupy receiver ~at:(Engine.now t.eng) ~cost:receiver.recv_cost
           in
           if receiver.recv_cost <= 0.0 then begin
             t.delivered <- t.delivered + 1;
             receiver.handler ~src msg
           end
           else
             ignore
               (Engine.schedule_at t.eng ~time:done_at (fun () ->
                    if receiver.up then begin
                      t.delivered <- t.delivered + 1;
                      receiver.handler ~src msg
                    end
                    else drop t))
         end
         else drop t))

(* One hop's wire time: sampled link latency, an optional nemesis delay
   spike, and size/bandwidth transmission time. *)
let hop_time t ~src ~dst msg =
  let latency =
    if src = dst then 0.0 else Latency.sample (latency_of_link t ~src ~dst) t.rng
  in
  let latency =
    if t.spike_rate > 0.0 && Rng.float t.rng 1.0 < t.spike_rate then begin
      t.delayed <- t.delayed + 1;
      latency +. t.spike_magnitude
    end
    else latency
  in
  let transmission =
    match t.sizer with
    | Some size when t.bandwidth < infinity ->
      Float.of_int (size msg) /. t.bandwidth
    | _ -> 0.0
  in
  latency +. transmission

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  let sender = get_node t src in
  match Hashtbl.find_opt t.nodes dst with
  | None -> drop t
  | Some _ when not sender.up -> drop t
  | Some receiver ->
    if partitioned t src dst then drop t
    else if t.drop_rate > 0.0 && Rng.float t.rng 1.0 < t.drop_rate then drop t
    else begin
      let now = Engine.now t.eng in
      let departure = occupy sender ~at:now ~cost:sender.send_cost in
      let arrival = departure +. hop_time t ~src ~dst msg in
      (* TCP channels deliver in order: clamp to the previous delivery
         time on this directed pair — unless the reorder dice fire, in
         which case this message races ahead of (or lags behind) the
         channel and the clamp is neither applied nor advanced. *)
      let reorder =
        t.reorder_rate > 0.0 && Rng.float t.rng 1.0 < t.reorder_rate
      in
      let arrival =
        if reorder then begin
          t.reordered <- t.reordered + 1;
          arrival
        end
        else begin
          let arrival =
            match Hashtbl.find_opt t.last_delivery (src, dst) with
            | Some last when last > arrival -> last
            | _ -> arrival
          in
          Hashtbl.replace t.last_delivery (src, dst) arrival;
          arrival
        end
      in
      deliver_copy t ~src ~arrival receiver msg;
      (* Duplication: a retransmission races the original on its own
         independently sampled path, unconstrained by the FIFO clamp. *)
      if t.duplicate_rate > 0.0 && Rng.float t.rng 1.0 < t.duplicate_rate
      then begin
        t.duplicated <- t.duplicated + 1;
        let dup_arrival = departure +. hop_time t ~src ~dst msg in
        deliver_copy t ~src ~arrival:dup_arrival receiver msg
      end
    end

let broadcast t ~src ~dsts msg = List.iter (fun dst -> send t ~src ~dst msg) dsts

let crash t id =
  let n = get_node t id in
  n.up <- false

let recover t id =
  let n = get_node t id in
  n.up <- true;
  (* A recovered process starts with an idle CPU. *)
  n.busy_until <- Engine.now t.eng

let partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Hashtbl.replace t.cuts (a, b) ();
          Hashtbl.replace t.cuts (b, a) ())
        group_b)
    group_a

let heal t = Hashtbl.reset t.cuts

let clamp01 p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p
let set_drop_rate t p = t.drop_rate <- clamp01 p
let set_duplicate_rate t p = t.duplicate_rate <- clamp01 p
let set_reorder_rate t p = t.reorder_rate <- clamp01 p

let set_delay_spike t ~rate ~magnitude_ms =
  t.spike_rate <- clamp01 rate;
  t.spike_magnitude <- (if magnitude_ms < 0.0 then 0.0 else magnitude_ms)

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    reordered = t.reordered;
    delayed = t.delayed;
  }

let set_bandwidth t bytes_per_ms = t.bandwidth <- bytes_per_ms
let set_sizer t f = t.sizer <- Some f

let scale_node_costs t id ~factor =
  let n = get_node t id in
  n.recv_cost <- n.recv_cost *. factor;
  n.send_cost <- n.send_cost *. factor
