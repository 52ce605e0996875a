module Ids = Grid_util.Ids

type protocol = Basic | Xpaxos_read | Leased_read | Tpaxos | Unreplicated | Unknown

let protocol_name = function
  | Basic -> "basic"
  | Xpaxos_read -> "x-paxos read"
  | Leased_read -> "x-paxos leased"
  | Tpaxos -> "t-paxos"
  | Unreplicated -> "unreplicated"
  | Unknown -> "unknown"

(* The leader records the request type as a constant label on the
   [Leader_receive] span; that label is the only protocol information the
   analysis needs, keeping [grid_obs] independent of [grid_paxos]. *)
let protocol_of_detail = function
  | "read" -> Xpaxos_read
  | "read_leased" -> Leased_read
  | "write" -> Basic
  | "original" -> Unreplicated
  | "txn_op" | "txn_commit" | "txn_abort" -> Tpaxos
  | _ -> Unknown

type timeline = {
  req : Ids.Request_id.t;
  protocol : protocol;
  spans : Span.event list;  (** this request's span events, in time order *)
  phases : (Span.phase * float) list;
      (** first occurrence time of each recorded phase, in lifecycle order *)
}

type breakdown = {
  m_wan : float;  (** M: client send -> leader receive (one WAN hop) *)
  exec : float;  (** E: leader receive -> apply at the leader *)
  m_lan2 : float;  (** 2m: propose -> accept quorum (LAN round trip) *)
  total : float;  (** client send -> reply *)
}

let phase_time tl p = List.assoc_opt p tl.phases

let breakdown tl =
  let ( let* ) = Option.bind in
  let* send = phase_time tl Span.Client_send in
  let* reply = phase_time tl Span.Reply in
  let recv = phase_time tl Span.Leader_receive in
  let apply = phase_time tl Span.Apply in
  let propose = phase_time tl Span.Propose in
  let quorum = phase_time tl Span.Accept_quorum in
  let diff a b = match (a, b) with Some a, Some b -> b -. a | _ -> nan in
  Some
    {
      m_wan = diff (Some send) recv;
      exec = diff recv apply;
      m_lan2 = diff propose quorum;
      total = reply -. send;
    }

let compare_req (a : Ids.Request_id.t) b = Ids.Request_id.compare a b

(* Group the span events of a trace into per-request timelines, ordered by
   first appearance in the trace. *)
let timelines (events : Span.event list) : timeline list =
  let module M = Map.Make (struct
    type t = Ids.Request_id.t

    let compare = compare_req
  end) in
  let order = ref [] in
  let acc = ref M.empty in
  List.iter
    (fun (e : Span.event) ->
      match e.body with
      | Span { req; _ } ->
        (match M.find_opt req !acc with
        | None ->
          order := req :: !order;
          acc := M.add req [ e ] !acc
        | Some es -> acc := M.add req (e :: es) !acc)
      | Msg _ | Note _ -> ())
    events;
  List.rev_map
    (fun req ->
      let spans =
        List.stable_sort
          (fun (a : Span.event) b -> Float.compare a.time b.time)
          (List.rev (M.find req !acc))
      in
      let phases =
        List.filter_map
          (fun p ->
            List.find_map
              (fun (e : Span.event) ->
                match e.body with
                | Span s when s.phase = p -> Some (p, e.time)
                | _ -> None)
              spans)
          Span.all_phases
      in
      let protocol =
        (* A [Lease_local] span is authoritative: the read actually
           completed on the fast path. A read dispatched leased can still
           finish on the confirm path (lease lapsed mid-execution), so
           the dispatch label alone would over-count. *)
        let leased =
          List.exists
            (fun (e : Span.event) ->
              match e.body with
              | Span { phase = Lease_local; _ } -> true
              | _ -> false)
            spans
        in
        if leased then Leased_read
        else
          match
            List.find_map
              (fun (e : Span.event) ->
                match e.body with
                | Span { phase = Leader_receive; detail; _ } -> Some detail
                | _ -> None)
              spans
          with
          | Some d when d <> "read_leased" -> protocol_of_detail d
          | Some _ -> Xpaxos_read  (* dispatched leased, completed confirmed *)
          | None -> Unknown
      in
      { req; protocol; spans; phases })
    !order
  |> List.rev

let find events req = List.find_opt (fun tl -> compare_req tl.req req = 0) (timelines events)

let completed tl = phase_time tl Span.Reply <> None

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)

type phase_stats = {
  protocol : protocol;
  count : int;  (** completed requests of this protocol class *)
  mean_m_wan : float;
  mean_exec : float;
  mean_m_lan2 : float;
  mean_total : float;
}

let protocol_order = [ Basic; Xpaxos_read; Leased_read; Tpaxos; Unreplicated; Unknown ]

let phase_stats events =
  let tls = timelines events in
  List.filter_map
    (fun proto ->
      let bds =
        List.filter_map
          (fun (tl : timeline) -> if tl.protocol = proto then breakdown tl else None)
          tls
      in
      match bds with
      | [] -> None
      | _ ->
        let n = List.length bds in
        (* Per-component means ignore requests missing that component
           (e.g. reads never record propose/accept_quorum). *)
        let mean_of f =
          let xs = List.filter Float.is_finite (List.map f bds) in
          match xs with
          | [] -> nan
          | _ -> List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)
        in
        Some
          {
            protocol = proto;
            count = n;
            mean_m_wan = mean_of (fun b -> b.m_wan);
            mean_exec = mean_of (fun b -> b.exec);
            mean_m_lan2 = mean_of (fun b -> b.m_lan2);
            mean_total = mean_of (fun b -> b.total);
          })
    protocol_order

let slowest ?(n = 10) events =
  timelines events
  |> List.filter_map (fun tl ->
         match breakdown tl with Some b -> Some (tl, b) | None -> None)
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b.total a.total)
  |> List.filteri (fun i _ -> i < n)

let message_counts events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Span.event) ->
      match e.body with
      | Msg { kind; _ } ->
        let key = (e.actor, kind) in
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | _ -> ())
    events;
  Hashtbl.fold (fun (actor, kind) n acc -> (actor, kind, n) :: acc) tbl []
  |> List.sort (fun (a1, k1, _) (a2, k2, _) ->
         match String.compare a1 a2 with 0 -> String.compare k1 k2 | c -> c)

(* ------------------------------------------------------------------ *)
(* Stitched trace trees                                                 *)

(* One causal trace = every span event sharing a trace id, across shard
   and actor boundaries. Edges come from the recorded [parent] span ids;
   when several events share a span id (a retry re-recording the same
   actor/phase), children attach to the first occurrence. *)

type tree = { event : Span.event; id : string; children : tree list }

let span_tid (e : Span.event) =
  match e.body with Span { tid; _ } when tid <> 0 -> Some tid | _ -> None

(* The trace id of a request: from the first traced span carrying it. *)
let trace_id_of events req =
  List.find_map
    (fun (e : Span.event) ->
      match e.body with
      | Span { req = r; tid; _ } when tid <> 0 && compare_req r req = 0 -> Some tid
      | _ -> None)
    events

let trace_ids events =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      match span_tid e with
      | Some tid when not (Hashtbl.mem seen tid) ->
        Hashtbl.replace seen tid ();
        order := tid :: !order
      | _ -> ())
    events;
  List.rev !order

let trace_tree events ~tid =
  let spans =
    List.filter (fun e -> span_tid e = Some tid) events
    |> List.stable_sort (fun (a : Span.event) b -> Float.compare a.time b.time)
    |> Array.of_list
  in
  let id_of i =
    match spans.(i).body with
    | Span { phase; _ } -> Span.span_id ~actor:spans.(i).actor phase
    | _ -> assert false
  in
  let parent_of i =
    match spans.(i).body with Span { parent; _ } -> parent | _ -> assert false
  in
  let first = Hashtbl.create 16 in
  Array.iteri
    (fun i _ -> if not (Hashtbl.mem first (id_of i)) then Hashtbl.add first (id_of i) i)
    spans;
  let children = Array.make (Array.length spans) [] in
  let roots = ref [] in
  (* Walk in reverse so the child lists come out in time order. *)
  for i = Array.length spans - 1 downto 0 do
    let p = parent_of i in
    match (if p = "" then None else Hashtbl.find_opt first p) with
    | Some pi when pi <> i -> children.(pi) <- i :: children.(pi)
    | _ -> roots := i :: !roots
  done;
  let rec build i =
    { event = spans.(i); id = id_of i; children = List.map build children.(i) }
  in
  List.map build !roots

(* ------------------------------------------------------------------ *)
(* Tail attribution                                                     *)

(* Which inter-phase segment dominates tail latency, per protocol class:
   over the completed requests whose total latency is at or above the
   99th percentile, the mean duration of each consecutive phase-to-phase
   segment (first-occurrence times, time-sorted), largest first. *)

type attribution = {
  a_protocol : protocol;
  a_count : int;  (** completed requests of this class *)
  a_tail : int;  (** requests at/above the threshold *)
  a_threshold : float;  (** the 99th percentile of total latency, ms *)
  a_segments : (string * float) list;  (** segment -> mean ms over the tail *)
}

let tail_attribution events =
  let tls = timelines events in
  List.filter_map
    (fun proto ->
      let completed =
        List.filter_map
          (fun (tl : timeline) ->
            if tl.protocol <> proto then None
            else Option.map (fun b -> (tl, b.total)) (breakdown tl))
          tls
      in
      match completed with
      | [] -> None
      | _ ->
        let totals = Array.of_list (List.map snd completed) in
        let threshold = Grid_util.Stats.percentile totals 99.0 in
        let tail = List.filter (fun (_, t) -> t >= threshold) completed in
        let sums = Hashtbl.create 8 in
        List.iter
          (fun ((tl : timeline), _) ->
            let pts =
              List.stable_sort
                (fun (_, a) (_, b) -> Float.compare a b)
                tl.phases
            in
            let rec segs = function
              | (pa, ta) :: ((pb, tb) :: _ as rest) ->
                let key = Span.phase_name pa ^ "->" ^ Span.phase_name pb in
                let s, n =
                  Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums key)
                in
                Hashtbl.replace sums key (s +. (tb -. ta), n + 1);
                segs rest
              | _ -> ()
            in
            segs pts)
          tail;
        let segments =
          Hashtbl.fold (fun k (s, n) acc -> (k, s /. Float.of_int n) :: acc) sums []
          |> List.sort (fun (ka, a) (kb, b) ->
                 match Float.compare b a with 0 -> String.compare ka kb | c -> c)
        in
        Some
          {
            a_protocol = proto;
            a_count = List.length completed;
            a_tail = List.length tail;
            a_threshold = threshold;
            a_segments = segments;
          })
    protocol_order

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp_breakdown ppf b =
  let cell v = if Float.is_finite v then Printf.sprintf "%8.3f" v else "       -" in
  Format.fprintf ppf "M=%s E=%s 2m=%s total=%s" (cell b.m_wan) (cell b.exec)
    (cell b.m_lan2) (cell b.total)

let pp_timeline ppf tl =
  Format.fprintf ppf "%a (%s)@." Ids.Request_id.pp tl.req (protocol_name tl.protocol);
  (match tl.phases with
  | [] -> ()
  | (_, t0) :: _ ->
    List.iter
      (fun (e : Span.event) ->
        match e.body with
        | Span { phase; instance; detail; _ } ->
          Format.fprintf ppf "  +%9.3f %-8s %-14s%s%s@." (e.time -. t0) e.actor
            (Span.phase_name phase)
            (if instance >= 0 then Printf.sprintf " i=%d" instance else "")
            (if detail = "" then "" else " " ^ detail)
        | _ -> ())
      tl.spans);
  match breakdown tl with
  | Some b -> Format.fprintf ppf "  %a@." pp_breakdown b
  | None -> Format.fprintf ppf "  (incomplete: no reply recorded)@."

let pp_phase_stats ppf stats =
  Format.fprintf ppf "%-14s %6s %10s %10s %10s %10s@." "protocol" "n" "M" "E" "2m"
    "total";
  List.iter
    (fun s ->
      let cell v = if Float.is_finite v then Printf.sprintf "%10.3f" v else "         -" in
      Format.fprintf ppf "%-14s %6d %s %s %s %s@." (protocol_name s.protocol) s.count
        (cell s.mean_m_wan) (cell s.mean_exec) (cell s.mean_m_lan2)
        (cell s.mean_total))
    stats

let pp_tree ppf roots =
  let rec go depth node =
    (match node.event.body with
    | Span.Span { req; phase; instance; detail; _ } ->
      Format.fprintf ppf "%s+%9.3f %-22s %a %s%s%s@." (String.make (2 * depth) ' ')
        node.event.time
        (node.event.actor ^ ":" ^ Span.phase_name phase)
        Ids.Request_id.pp req
        (if instance >= 0 then Printf.sprintf "i=%d " instance else "")
        (if detail = "" then "" else detail ^ " ")
        ""
    | _ -> ());
    List.iter (go (depth + 1)) node.children
  in
  List.iter (go 0) roots

let pp_attribution ppf attrs =
  List.iter
    (fun a ->
      Format.fprintf ppf "%-14s n=%d tail(>=p)=%d threshold=%.3f ms@."
        (protocol_name a.a_protocol) a.a_count a.a_tail a.a_threshold;
      List.iter
        (fun (seg, mean) -> Format.fprintf ppf "    %-30s %10.3f ms@." seg mean)
        a.a_segments)
    attrs
