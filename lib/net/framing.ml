module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf
module Frame = Grid_codec.Frame

exception Closed

type read_error = Frame.read_error = Eof | Corrupt of { pos : int; msg : string }

let pp_read_error ppf = function
  | Eof -> Format.pp_print_string ppf "eof"
  | Corrupt { pos; msg } -> Format.fprintf ppf "corrupt frame at byte %d: %s" pos msg

let max_frame = 16 * 1024 * 1024

let frame payload =
  if String.length payload + 4 > max_frame then invalid_arg "Framing: frame too large";
  Frame.frame payload

let really_write fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.write_substring fd s !pos (len - !pos) in
    if n = 0 then raise Closed;
    pos := !pos + n
  done

(* Read [n] bytes: [`Full], or [`Short k] when EOF came after [k] of
   them. *)
let really_read fd buf n =
  let rec go pos =
    if pos = n then `Full
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> `Short pos
      | k -> go (pos + k)
  in
  go 0

let write_frame fd payload =
  let s = frame payload in
  really_write fd s;
  String.length s

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 4 with
  | `Short k -> Error (Frame.eof_after k)
  | `Full -> (
    match Frame.body_length ~max:max_frame (Bytes.unsafe_to_string hdr) 0 with
    | Error _ as e -> e
    | Ok len -> (
      let body = Bytes.create len in
      match really_read fd body len with
      | `Short k -> Error (Frame.eof_after (4 + k))
      | `Full -> Frame.check_body (Bytes.unsafe_to_string body) 0 len))

let reader () = Frame.reader ~max:max_frame
let read_from r fd = Frame.fill r (Unix.read fd)

(* ------------------------------------------------------------------ *)
(* Output queue: whole frames, the first one written up to [off]. *)

type writer = { frames : string Queue.t; mutable off : int; mutable bytes : int }

let writer () = { frames = Queue.create (); off = 0; bytes = 0 }
let queued w = w.bytes

let add_raw w s =
  Queue.add s w.frames;
  w.bytes <- w.bytes + String.length s

let add_frame w payload =
  let s = frame payload in
  add_raw w s;
  String.length s

let flush w fd =
  let rec go () =
    match Queue.peek_opt w.frames with
    | None -> ()
    | Some s ->
      let k = Unix.single_write_substring fd s w.off (String.length s - w.off) in
      w.bytes <- w.bytes - k;
      if w.off + k = String.length s then begin
        ignore (Queue.pop w.frames);
        w.off <- 0
      end
      else w.off <- w.off + k;
      go ()
  in
  try go () with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

(* Hello frame: [uint node_id] then [uint max_wire_version]. Pre-
   versioning builds sent only the node id; an absent version field
   decodes as 1, which keeps this side of the handshake compatible. *)
let hello ~node_id ~max_version =
  Wire.encode (fun e ->
      Wire.Encoder.uint e node_id;
      Wire.Encoder.uint e max_version)

let write_hello fd ~node_id ~max_version = ignore (write_frame fd (hello ~node_id ~max_version))

let decode_hello payload =
  match
    let d = Wire.Decoder.of_string payload in
    let node_id = Wire.Decoder.uint d in
    let max_version = if Wire.Decoder.at_end d then 1 else Wire.Decoder.uint d in
    Wire.Decoder.expect_end d;
    (node_id, max_version)
  with
  | hello -> Ok hello
  | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg })

let read_hello fd = Result.bind (read_frame fd) decode_hello

module type CODEC = sig
  val encode : Grid_paxos.Types.msg -> string
  val decode : string -> (Grid_paxos.Types.msg * int, read_error) result
end

(* One negotiated connection speaks exactly one codec, picked by [codec]
   after the hello exchange. Both directions report the on-wire byte
   count (header + payload + CRC) so the transport can feed its byte
   counters without re-measuring. *)
module Codec (W : Wire_intf.WIRE with type msg = Grid_paxos.Types.msg) = struct
  let encode = W.encode
  let write_msg fd msg = write_frame fd (W.encode msg)

  let decode payload =
    match W.decode payload with
    | Ok msg -> Ok (msg, Frame.overhead + String.length payload)
    | Error e ->
      Error (Corrupt { pos = e.Wire_intf.pos; msg = Wire_intf.decode_error_to_string e })

  let read_msg fd = Result.bind (read_frame fd) decode
end

let codec version : (module CODEC) =
  let module W = (val Grid_paxos.Wire_codec.of_version_exn version) in
  (module Codec (W))
