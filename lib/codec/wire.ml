exception Decode_error of { pos : int; msg : string }

let fail pos msg = raise (Decode_error { pos; msg })

module Encoder = struct
  type t = Buffer.t

  let create ?(initial_size = 64) () = Buffer.create initial_size

  (* The varint bytes of [z], its bits read as unsigned. A top-level
     loop rather than a local closure, so writing an int allocates
     nothing. *)
  let rec varint t z =
    if z land lnot 0x7F = 0 then Buffer.add_char t (Char.chr z)
    else begin
      Buffer.add_char t (Char.chr (0x80 lor (z land 0x7F)));
      varint t (z lsr 7)
    end

  let uint t n =
    if n < 0 then invalid_arg "Wire.Encoder.uint: negative";
    varint t n

  let int t n =
    (* Zigzag: map small-magnitude signed ints to small unsigned ints. The
       logical shifts keep this correct for min_int. [z] may have the top
       bit set: up to 10 varint bytes. *)
    varint t ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let int64 t v =
    for i = 0 to 7 do
      Buffer.add_char t (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
    done

  let float t f = int64 t (Int64.bits_of_float f)
  let bool t b = Buffer.add_char t (if b then '\001' else '\000')
  let char t c = Buffer.add_char t c

  let string t s =
    uint t (String.length s);
    Buffer.add_string t s

  let option t enc = function
    | None -> bool t false
    | Some v ->
      bool t true;
      enc v

  let list t enc l =
    uint t (List.length l);
    List.iter enc l

  let array t enc a =
    uint t (Array.length a);
    Array.iter enc a

  let raw t s = Buffer.add_string t s
  let blit t dst pos = Buffer.blit t 0 dst pos (Buffer.length t)
  let clear = Buffer.clear
  let length = Buffer.length
  let contents = Buffer.contents
end

module Decoder = struct
  type t = { src : string; mutable pos : int }

  let of_string ?(pos = 0) src =
    if pos < 0 || pos > String.length src then
      invalid_arg "Wire.Decoder.of_string: bad position";
    { src; pos }

  let pos t = t.pos
  let remaining t = String.length t.src - t.pos
  let at_end t = remaining t = 0

  let byte t =
    if t.pos >= String.length t.src then fail t.pos "unexpected end of input";
    let c = String.unsafe_get t.src t.pos in
    t.pos <- t.pos + 1;
    Char.code c

  (* All [Sys.int_size] bits of a varint of at most nine bytes; the top
     bit lands in the sign. *)
  let raw_varint t =
    let rec go shift acc =
      if shift >= Sys.int_size then fail t.pos "varint too long";
      let b = byte t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let uint t =
    let start = t.pos in
    let n = raw_varint t in
    if n < 0 then fail start "varint overflows a non-negative int";
    n

  let int t =
    let z = raw_varint t in
    (z lsr 1) lxor (-(z land 1))

  let int64 t =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    !v

  let float t = Int64.float_of_bits (int64 t)

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> fail (t.pos - 1) (Printf.sprintf "invalid boolean byte %d" b)

  let char t = Char.chr (byte t)

  let raw t n =
    if n < 0 then fail t.pos "negative length";
    if remaining t < n then fail t.pos "string extends past end of input";
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let string t =
    let n = uint t in
    raw t n

  let option t dec = if bool t then Some (dec t) else None

  let list t dec =
    let n = uint t in
    if n > remaining t then fail t.pos "list length exceeds input";
    List.init n (fun _ -> dec t)

  let array t dec =
    let n = uint t in
    if n > remaining t then fail t.pos "array length exceeds input";
    Array.init n (fun _ -> dec t)

  let expect_end t =
    if not (at_end t) then fail t.pos "trailing bytes after decoded value"
end

(* CRC-32, reflected IEEE 802.3 polynomial 0xEDB88320, table-driven.
   The running value is a native int in [0, 2^32), so no step boxes. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The CRC register after [len] bytes of [s] from [pos]; the caller has
   checked the range. *)
let crc_update c s pos len =
  let c = ref c in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c

let crc32_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Wire.crc32_sub";
  crc_update 0xFFFFFFFF s pos len lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc32_sub s 0 (String.length s))

let with_crc s =
  let n = String.length s in
  let b = Bytes.create (n + 4) in
  Bytes.blit_string s 0 b 0 n;
  let c = crc32_sub s 0 n in
  for i = 0 to 3 do
    Bytes.set b (n + i) (Char.unsafe_chr ((c lsr (8 * i)) land 0xFF))
  done;
  Bytes.unsafe_to_string b

let check_crc_sub s pos len =
  if len < 4 then fail len "input too short to contain a CRC trailer";
  let n = len - 4 in
  let t = pos + n in
  let stored =
    Char.code s.[t]
    lor (Char.code s.[t + 1] lsl 8)
    lor (Char.code s.[t + 2] lsl 16)
    lor (Char.code s.[t + 3] lsl 24)
  in
  if crc32_sub s pos n <> stored then fail n "CRC mismatch";
  String.sub s pos n

let check_crc s = check_crc_sub s 0 (String.length s)

let encode f =
  let e = Encoder.create () in
  f e;
  Encoder.contents e

let decode s f =
  let d = Decoder.of_string s in
  let v = f d in
  Decoder.expect_end d;
  v
