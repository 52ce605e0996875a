module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf

exception Closed

type read_error = Eof | Corrupt of { pos : int; msg : string }

let pp_read_error ppf = function
  | Eof -> Format.pp_print_string ppf "eof"
  | Corrupt { pos; msg } -> Format.fprintf ppf "corrupt frame at byte %d: %s" pos msg

let max_frame = 16 * 1024 * 1024

(* The pieces both readers share, so the blocking and the incremental
   reader cannot disagree on what a frame is. *)
let get_len b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let bad_len len = Corrupt { pos = 0; msg = Printf.sprintf "bad frame length %d" len }
let eof_in_header = Corrupt { pos = 0; msg = "eof inside frame header" }
let eof_in_body = Corrupt { pos = 0; msg = "eof inside frame body" }

(* The frame body at [s.[pos .. pos + len)], checked in place: only its
   payload is copied. *)
let check_body s pos len =
  match Wire.check_crc_sub s pos len with
  | payload -> Ok payload
  | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg })

let set_len b off len =
  Bytes.set b off (Char.chr (len land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((len lsr 24) land 0xFF))

(* Header, payload and CRC trailer (that of {!Wire.with_crc}) in one
   allocation. *)
let frame payload =
  let n = String.length payload in
  if n + 4 > max_frame then invalid_arg "Framing: frame too large";
  let b = Bytes.create (n + 8) in
  set_len b 0 (n + 4);
  Bytes.blit_string payload 0 b 4 n;
  set_len b (n + 4) (Wire.crc32_sub payload 0 n);
  Bytes.unsafe_to_string b

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
  | `Short 0 -> Error Eof
  | `Short _ -> Error eof_in_header
  | `Full -> (
    let len = get_len hdr 0 in
    if len < 4 || len > max_frame then Error (bad_len len)
    else
      let body = Bytes.create len in
      match really_read fd body len with
      | `Short _ -> Error eof_in_body
      | `Full -> check_body (Bytes.unsafe_to_string body) 0 len)

(* ------------------------------------------------------------------ *)
(* Incremental reader: bytes in [buf.[lo..hi)], frames parsed off the
   front. The buffer starts small, grows only to hold one large frame,
   and is swapped back for a small one once it drains. 1016 bytes is 128
   words, the largest block OCaml 5 keeps in its size-classed pools:
   anything larger is a separate [malloc]. *)

let initial_capacity = 1016

type reader = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let reader () = { buf = Bytes.create initial_capacity; lo = 0; hi = 0 }
let buffered r = r.hi - r.lo
let peek r n = Bytes.sub_string r.buf r.lo (min n (buffered r))

(* Make room for at least one more byte at [hi]: reset an empty buffer
   (back to the small size), slide a partial frame to the front, double
   only when one frame fills the whole buffer. *)
let make_room r =
  let n = buffered r and cap = Bytes.length r.buf in
  if n = 0 then begin
    r.lo <- 0;
    r.hi <- 0;
    if cap > initial_capacity then r.buf <- Bytes.create initial_capacity
  end
  else if r.hi = cap then begin
    let want = if n < initial_capacity then initial_capacity else if r.lo > 0 then cap else 2 * cap in
    let buf = if want = cap then r.buf else Bytes.create want in
    Bytes.blit r.buf r.lo buf 0 n;
    r.buf <- buf;
    r.lo <- 0;
    r.hi <- n
  end

let feed r s off len =
  let rec go off len =
    if len > 0 then begin
      make_room r;
      let k = min len (Bytes.length r.buf - r.hi) in
      Bytes.blit_string s off r.buf r.hi k;
      r.hi <- r.hi + k;
      go (off + k) (len - k)
    end
  in
  go off len

let read_from r fd =
  make_room r;
  let k = Unix.read fd r.buf r.hi (Bytes.length r.buf - r.hi) in
  r.hi <- r.hi + k;
  k

let next_frame r =
  if buffered r < 4 then None
  else
    let len = get_len r.buf r.lo in
    if len < 4 || len > max_frame then Some (Error (bad_len len))
    else if buffered r < 4 + len then None
    else begin
      let pos = r.lo + 4 in
      r.lo <- pos + len;
      (* the string view of [buf] does not outlive this call *)
      Some (check_body (Bytes.unsafe_to_string r.buf) pos len)
    end

let eof_error r =
  match buffered r with 0 -> Eof | n when n < 4 -> eof_in_header | _ -> eof_in_body

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
    | Ok msg -> Ok (msg, 8 + String.length payload)
    | Error e ->
      Error (Corrupt { pos = e.Wire_intf.pos; msg = Wire_intf.decode_error_to_string e })

  let read_msg fd = Result.bind (read_frame fd) decode
end

let codec version : (module CODEC) =
  let module W = (val Grid_paxos.Wire_codec.of_version_exn version) in
  (module Codec (W))
