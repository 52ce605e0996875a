type read_error = Eof | Corrupt of { pos : int; msg : string }

let overhead = 8

let get_u32 s off =
  Char.code (String.get s off)
  lor (Char.code (String.get s (off + 1)) lsl 8)
  lor (Char.code (String.get s (off + 2)) lsl 16)
  lor (Char.code (String.get s (off + 3)) lsl 24)

let set_u32 b off n =
  Bytes.set b off (Char.chr (n land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((n lsr 24) land 0xFF))

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + overhead) in
  set_u32 b 0 (n + 4);
  Bytes.blit_string payload 0 b 4 n;
  set_u32 b (n + 4) (Wire.crc32_sub payload 0 n);
  Bytes.unsafe_to_string b

let trailer s =
  let b = Bytes.create 4 in
  set_u32 b 0 (Wire.crc32_sub s 0 (String.length s));
  Bytes.unsafe_to_string b

let body_length ~max s off =
  let len = get_u32 s off in
  if len < 4 || len > max then
    Error (Corrupt { pos = 0; msg = Printf.sprintf "bad frame length %d" len })
  else Ok len

let check_body s pos len =
  match Wire.check_crc_sub s pos len with
  | payload -> Ok payload
  | exception Wire.Decode_error { pos; msg } -> Error (Corrupt { pos; msg })

let eof_after = function
  | 0 -> Eof
  | n when n < 4 -> Corrupt { pos = 0; msg = "eof inside frame header" }
  | _ -> Corrupt { pos = 0; msg = "eof inside frame body" }

(* ------------------------------------------------------------------ *)
(* Incremental reader: bytes in [buf.[lo..hi)], frames parsed off the
   front. *)

let initial_capacity = 1016

type reader = { max : int; mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let reader ~max = { max; buf = Bytes.create initial_capacity; lo = 0; hi = 0 }
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

let fill r read =
  make_room r;
  let k = read r.buf r.hi (Bytes.length r.buf - r.hi) in
  r.hi <- r.hi + k;
  k

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

let next_frame r =
  if buffered r < 4 then None
  else
    (* the string view of [buf] does not outlive this call *)
    let s = Bytes.unsafe_to_string r.buf in
    match body_length ~max:r.max s r.lo with
    | Error _ as e -> Some e
    | Ok len when buffered r < 4 + len -> None
    | Ok len -> (
      match check_body s (r.lo + 4) len with
      | Ok _ as ok ->
        r.lo <- r.lo + 4 + len;
        Some ok
      | Error _ as e -> Some e)

let claimed_size r =
  if buffered r < 4 then invalid_arg "Frame.claimed_size";
  4 + get_u32 (Bytes.unsafe_to_string r.buf) r.lo

let eof_error r = eof_after (buffered r)
