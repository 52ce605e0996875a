(** A transactional key-value store — the service behind the T-Paxos
    evaluation (§3.5/§4.2) and the transactions example.

    Operations are deterministic; transactionality comes from the
    replication layer: per-key footprints feed T-Paxos first-committer-
    wins conflict detection, and the persistent-map state makes leader-
    local transaction branches cheap. *)

module Wire = Grid_codec.Wire
module Smap = Keyed.Strings

let name = "kv_store"

type state = { entries : string Smap.t; version : int }

type op =
  | Put of { key : string; value : string }
  | Get of string
  | Del of string
  | Cas of { key : string; expected : string option; value : string }
  | Append of { key : string; value : string }
  | Size  (** read *)

type result =
  | Unit
  | Value of string option
  | Cas_ok of bool
  | Count of int

let initial () = { entries = Smap.empty; version = 0 }

let classify = function
  | Put _ | Del _ | Cas _ | Append _ -> `Write
  | Get _ | Size -> `Read

type outcome = { state : state; result : result; witness : string option }

let bump st entries = { entries; version = st.version + 1 }

let eval state op =
  match op with
  | Put { key; value } -> (bump state (Smap.add key value state.entries), Unit)
  | Get key -> (state, Value (Smap.find_opt key state.entries))
  | Del key -> (bump state (Smap.remove key state.entries), Unit)
  | Cas { key; expected; value } ->
    let current = Smap.find_opt key state.entries in
    if current = expected then (bump state (Smap.add key value state.entries), Cas_ok true)
    else (state, Cas_ok false)
  | Append { key; value } ->
    let current = Option.value ~default:"" (Smap.find_opt key state.entries) in
    (bump state (Smap.add key (current ^ value) state.entries), Unit)
  | Size -> (state, Count (Smap.cardinal state.entries))

let apply ~rng:_ ~now:_ state op =
  let state, result = eval state op in
  { state; result; witness = None }

let replay state op ~witness:_ = eval state op

let footprint = function
  | Put { key; _ } | Del key | Cas { key; _ } | Append { key; _ } -> [ "kv/" ^ key ]
  | Get key -> [ "kv/" ^ key ]
  | Size -> []

(* Partition keys for the sharded runtime. [Size] conflicts with nothing
   (empty footprint) but reads the whole keyspace, so for routing it
   must advertise "*" — one shard's answer would be a slice. *)
let route = function Size -> [ "*" ] | op -> footprint op

(* --- codecs --- *)

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Put { key; value } ->
        Wire.Encoder.uint e 0;
        Wire.Encoder.string e key;
        Wire.Encoder.string e value
      | Get key ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.string e key
      | Del key ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.string e key
      | Cas { key; expected; value } ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.string e key;
        Wire.Encoder.option e (Wire.Encoder.string e) expected;
        Wire.Encoder.string e value
      | Append { key; value } ->
        Wire.Encoder.uint e 4;
        Wire.Encoder.string e key;
        Wire.Encoder.string e value
      | Size -> Wire.Encoder.uint e 5)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 ->
        let key = Wire.Decoder.string d in
        let value = Wire.Decoder.string d in
        Put { key; value }
      | 1 -> Get (Wire.Decoder.string d)
      | 2 -> Del (Wire.Decoder.string d)
      | 3 ->
        let key = Wire.Decoder.string d in
        let expected = Wire.Decoder.option d Wire.Decoder.string in
        let value = Wire.Decoder.string d in
        Cas { key; expected; value }
      | 4 ->
        let key = Wire.Decoder.string d in
        let value = Wire.Decoder.string d in
        Append { key; value }
      | 5 -> Size
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "kv op %d" n }))

let encode_result r =
  Wire.encode (fun e ->
      match r with
      | Unit -> Wire.Encoder.uint e 0
      | Value v ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.option e (Wire.Encoder.string e) v
      | Cas_ok b ->
        Wire.Encoder.uint e 2;
        Wire.Encoder.bool e b
      | Count n ->
        Wire.Encoder.uint e 3;
        Wire.Encoder.uint e n)

let decode_result s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Unit
      | 1 -> Value (Wire.Decoder.option d Wire.Decoder.string)
      | 2 -> Cas_ok (Wire.Decoder.bool d)
      | 3 -> Count (Wire.Decoder.uint d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "kv result %d" n }))

let encode_state_into e st =
  Wire.Encoder.uint e st.version;
  Smap.write e Wire.Encoder.string st.entries

let encode_state st = Wire.encode (fun e -> encode_state_into e st)

let decode_state s =
  Wire.decode s (fun d ->
      let version = Wire.Decoder.uint d in
      { version; entries = Smap.read d Wire.Decoder.string })

(* Delta: changed and removed keys relative to the previous state. *)
let diff ~old_state st =
  Some
    (Wire.encode (fun e ->
         Wire.Encoder.uint e st.version;
         Smap.write_changed e Wire.Encoder.string ~equal:String.equal ~old:old_state.entries
           st.entries;
         Smap.write_removed e ~old:old_state.entries st.entries))

let patch st s =
  Wire.decode s (fun d ->
      let version = Wire.Decoder.uint d in
      let entries = Smap.apply_changed d Wire.Decoder.string st.entries in
      { version; entries = Smap.apply_removed d entries })

(* Range handoff for elastic resharding: the bounds are *footprint*
   keys ("kv/" ^ entry key), since cut points live in the partition
   map's key vocabulary; entries are stored under the raw key. *)

let in_range ~lo ~hi fk =
  String.compare fk lo >= 0
  && match hi with None -> true | Some h -> String.compare fk h < 0

let export_range st ~lo ~hi =
  let slice = Smap.filter (fun k _ -> in_range ~lo ~hi ("kv/" ^ k)) st.entries in
  Some (Smap.cardinal slice, Wire.encode (fun e -> Smap.write e Wire.Encoder.string slice))

(* Idempotent: re-importing a slice that is already present leaves the
   state (version included) untouched, so duplicate INSTALL delivery is
   harmless. *)
let import_range st s =
  let slice = Wire.decode s (fun d -> Smap.read d Wire.Decoder.string) in
  let entries = Smap.union (fun _ _ v -> Some v) st.entries slice in
  if Smap.equal String.equal entries st.entries then st
  else { entries; version = st.version + 1 }

(** Test helpers. *)

let find st key = Smap.find_opt key st.entries
let cardinal st = Smap.cardinal st.entries
