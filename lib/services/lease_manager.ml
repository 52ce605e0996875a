(** A lease manager for grid resources — reservations in the style of the
    Storage Resource Broker or Globus resource co-allocation.

    Leases make clock nondeterminism unavoidable: whether an [Acquire]
    succeeds depends on whether the {e previous} lease has expired {e at
    the moment the service examines it}, i.e. on the local clock of the
    machine that runs the request — the same class of nondeterminism as
    the grid scheduler's examination race (§2). Replicas evaluating the
    same request a few milliseconds apart would disagree.

    Under the paper's protocol only the leader evaluates expiry (against
    its clock, via [apply ~now]) and the decision — including the grant
    deadline — ships in the witness, so every replica records the exact
    same lease table. *)

module Wire = Grid_codec.Wire
module Smap = Keyed.Strings

let name = "lease_manager"

type lease = { holder : int; until : float (* leader-clock ms *) }

type state = { leases : lease Smap.t; grants : int }

type op =
  | Acquire of { resource : string; holder : int; ttl_ms : float }
  | Renew of { resource : string; holder : int; ttl_ms : float }
  | Release of { resource : string; holder : int }
  | Holder_of of string  (** read *)
  | Active_count  (** read: leases unexpired at examination time *)

type result =
  | Granted of { until : float }
  | Denied of { holder : int; until : float }  (** current unexpired lease *)
  | Renewed of { until : float }
  | Released
  | Not_holder
  | Holder of (int * float) option
  | Count of int

let initial () = { leases = Smap.empty; grants = 0 }

let classify = function
  | Acquire _ | Renew _ | Release _ -> `Write
  | Holder_of _ | Active_count -> `Read

type outcome = { state : state; result : result; witness : string option }

let unexpired ~now (l : lease) = l.until > now

(* Witness payload: the decision tag plus the deadline the leader chose.
   Replaying the witness reproduces the identical transition without
   consulting the local clock. *)
let encode_witness e_tag until =
  Wire.encode (fun e ->
      Wire.Encoder.uint e e_tag;
      Wire.Encoder.float e until)

let decode_witness w =
  Wire.decode w (fun d ->
      let tag = Wire.Decoder.uint d in
      let until = Wire.Decoder.float d in
      (tag, until))

let grant state resource holder until =
  {
    leases = Smap.add resource { holder; until } state.leases;
    grants = state.grants + 1;
  }

let apply ~rng:_ ~now state op =
  match op with
  | Acquire { resource; holder; ttl_ms } -> (
    match Smap.find_opt resource state.leases with
    | Some l when unexpired ~now l && l.holder <> holder ->
      { state; result = Denied { holder = l.holder; until = l.until }; witness = Some (encode_witness 0 0.0) }
    | _ ->
      (* Free, expired-by-our-clock, or re-acquired by the same holder. *)
      let until = now +. ttl_ms in
      { state = grant state resource holder until;
        result = Granted { until };
        witness = Some (encode_witness 1 until) })
  | Renew { resource; holder; ttl_ms } -> (
    match Smap.find_opt resource state.leases with
    | Some l when l.holder = holder && unexpired ~now l ->
      let until = now +. ttl_ms in
      { state = { state with leases = Smap.add resource { holder; until } state.leases };
        result = Renewed { until };
        witness = Some (encode_witness 1 until) }
    | _ -> { state; result = Not_holder; witness = Some (encode_witness 0 0.0) })
  | Release { resource; holder } -> (
    match Smap.find_opt resource state.leases with
    | Some l when l.holder = holder ->
      { state = { state with leases = Smap.remove resource state.leases };
        result = Released;
        witness = Some (encode_witness 1 0.0) }
    | _ -> { state; result = Not_holder; witness = Some (encode_witness 0 0.0) })
  | Holder_of resource ->
    let holder =
      match Smap.find_opt resource state.leases with
      | Some l when unexpired ~now l -> Some (l.holder, l.until)
      | _ -> None
    in
    { state; result = Holder holder; witness = None }
  | Active_count ->
    let n = Smap.fold (fun _ l acc -> if unexpired ~now l then acc + 1 else acc) state.leases 0 in
    { state; result = Count n; witness = None }

let replay state op ~witness =
  let tag, until = decode_witness witness in
  match op with
  | Acquire { resource; holder; _ } ->
    if tag = 1 then (grant state resource holder until, Granted { until })
    else begin
      match Smap.find_opt resource state.leases with
      | Some l -> (state, Denied { holder = l.holder; until = l.until })
      | None -> (state, Denied { holder = -1; until = 0.0 })
    end
  | Renew { resource; holder; _ } ->
    if tag = 1 then
      ( { state with leases = Smap.add resource { holder; until } state.leases },
        Renewed { until } )
    else (state, Not_holder)
  | Release { resource; _ } ->
    if tag = 1 then
      ({ state with leases = Smap.remove resource state.leases }, Released)
    else (state, Not_holder)
  | Holder_of _ | Active_count ->
    (* Reads carry no witness; replay is never invoked for them, but be
       total anyway. *)
    (state, Count 0)

let footprint = function
  | Acquire { resource; _ } | Renew { resource; _ } | Release { resource; _ } ->
    [ "lease/" ^ resource ]
  | Holder_of _ | Active_count -> []

(* --- codecs --- *)

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Acquire { resource; holder; ttl_ms } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder;
        Wire.Encoder.float e ttl_ms
      | Renew { resource; holder; ttl_ms } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder;
        Wire.Encoder.float e ttl_ms
      | Release { resource; holder } ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.string e resource;
        Wire.Encoder.uint e holder
      | Holder_of resource ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.string e resource
      | Active_count -> Wire.Encoder.uint e 4)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        let ttl_ms = Wire.Decoder.float d in
        Acquire { resource; holder; ttl_ms }
      | 1 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        let ttl_ms = Wire.Decoder.float d in
        Renew { resource; holder; ttl_ms }
      | 2 ->
        let resource = Wire.Decoder.string d in
        let holder = Wire.Decoder.uint d in
        Release { resource; holder }
      | 3 -> Holder_of (Wire.Decoder.string d)
      | 4 -> Active_count
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "lease op %d" n }))

let encode_result r =
  Wire.encode (fun e ->
      match r with
      | Granted { until } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.float e until
      | Denied { holder; until } ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.int e holder;
        Wire.Encoder.float e until
      | Renewed { until } ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.float e until
      | Released -> Wire.Encoder.uint e 3
      | Not_holder -> Wire.Encoder.uint e 4
      | Holder h ->
        Wire.Encoder.uint e 5;
        Wire.Encoder.option e
          (fun (holder, until) ->
            Wire.Encoder.uint e holder;
            Wire.Encoder.float e until)
          h
      | Count n ->
        Wire.Encoder.uint e 6;
        Wire.Encoder.uint e n)

let decode_result s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Granted { until = Wire.Decoder.float d }
      | 1 ->
        let holder = Wire.Decoder.int d in
        let until = Wire.Decoder.float d in
        Denied { holder; until }
      | 2 -> Renewed { until = Wire.Decoder.float d }
      | 3 -> Released
      | 4 -> Not_holder
      | 5 ->
        Holder
          (Wire.Decoder.option d (fun d ->
               let holder = Wire.Decoder.uint d in
               let until = Wire.Decoder.float d in
               (holder, until)))
      | 6 -> Count (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "lease result %d" n }))

let encode_lease e l =
  Wire.Encoder.uint e l.holder;
  Wire.Encoder.float e l.until

let decode_lease d =
  let holder = Wire.Decoder.uint d in
  let until = Wire.Decoder.float d in
  { holder; until }

let encode_state_into e st =
  Wire.Encoder.uint e st.grants;
  Smap.write e encode_lease st.leases

let encode_state st = Wire.encode (fun e -> encode_state_into e st)

let decode_state s =
  Wire.decode s (fun d ->
      let grants = Wire.Decoder.uint d in
      { grants; leases = Smap.read d decode_lease })

(* Changed/removed leases only. *)
let diff ~old_state st =
  Some
    (Wire.encode (fun e ->
         Wire.Encoder.uint e st.grants;
         Smap.write_changed e encode_lease ~equal:( = ) ~old:old_state.leases st.leases;
         Smap.write_removed e ~old:old_state.leases st.leases))

let patch st s =
  Wire.decode s (fun d ->
      let grants = Wire.Decoder.uint d in
      let leases = Smap.apply_changed d decode_lease st.leases in
      { grants; leases = Smap.apply_removed d leases })

(** Test helpers. *)

let lease_of st resource = Smap.find_opt resource st.leases
let lease_count st = Smap.cardinal st.leases

(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
