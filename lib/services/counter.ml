(** A deterministic replicated counter — the quickstart service and the
    reference service for the protocol test suites (its state is small
    and trivially comparable). *)

module Wire = Grid_codec.Wire

let name = "counter"

type state = int
type op = Get | Add of int
type result = int

let initial () = 0
let classify = function Get -> `Read | Add _ -> `Write

type outcome = { state : state; result : result; witness : string option }

let apply ~rng:_ ~now:_ state op =
  match op with
  | Get -> { state; result = state; witness = None }
  | Add n -> { state = state + n; result = state + n; witness = None }

let replay state op ~witness:_ =
  match op with Get -> (state, state) | Add n -> (state + n, state + n)

let footprint = function Get -> [] | Add _ -> [ "counter" ]

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Get -> Wire.Encoder.uint e 0
      | Add n ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.int e n)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.Decoder.uint d with
      | 0 -> Get
      | 1 -> Add (Wire.Decoder.int d)
      | n -> raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "counter op %d" n }))

let encode_result r = Wire.encode (fun e -> Wire.Encoder.int e r)
let decode_result s = Wire.decode s Wire.Decoder.int
let encode_state_into e st = Wire.Encoder.int e st
let encode_state st = Wire.encode (fun e -> encode_state_into e st)
let decode_state = decode_result
let diff ~old_state:_ st = Some (encode_state st)
let patch _ s = decode_state s

(* Range handoff (elastic resharding) is not meaningful for this
   service's keyspace; the reshard coordinator refuses to move it. *)
let export_range _ ~lo:_ ~hi:_ = None
let import_range st _ = st
