(** CRC frames: the one record format of the TCP wire
    ([Grid_net.Framing]) and of the replica log on disk
    ([Grid_paxos.Storage.file]).

    A frame is a 4-byte little-endian body length, then the body: the
    payload followed by the 4-byte CRC-32 trailer of
    {!Wire.with_crc}. This module is pure: it builds frames, checks them
    in place, and parses them incrementally out of bytes that its caller
    reads from a socket or a file. *)

type read_error =
  | Eof  (** the input ended cleanly, between frames *)
  | Corrupt of { pos : int; msg : string }
      (** a bad length, a CRC mismatch, or an input that ended inside a
          frame; nothing after it can be trusted, as lengths past it may
          be garbage *)

val overhead : int
(** Header plus trailer: a frame is [overhead] bytes longer than its
    payload. *)

val frame : string -> string
(** Header, payload and trailer in one allocation. *)

val trailer : string -> string
(** The CRC trailer of a payload: [s ^ trailer s] is [Wire.with_crc s],
    written without copying [s]. *)

val body_length : max:int -> string -> int -> (int, read_error) result
(** The body length the header at [off] claims, or [Corrupt] when it
    leaves no room for the trailer or exceeds [max]. *)

val check_body : string -> int -> int -> (string, read_error) result
(** [check_body s pos len]: the payload of the body at [s.\[pos .. pos + len)],
    its CRC checked in place; only the payload is copied. *)

val eof_after : int -> read_error
(** What an input that ends [n] bytes into a frame means: [Eof] at 0,
    [Corrupt] inside the header or the body. *)

(** {2 Incremental reader} *)

type reader
(** Bytes read and not yet parsed. The buffer starts at 1016 bytes (the
    largest block OCaml 5 keeps in its size-classed pools), grows only
    while one frame does not fit, and drops back once it drains. *)

val reader : max:int -> reader
(** A reader that rejects frames whose body is longer than [max]. *)

val fill : reader -> (bytes -> int -> int -> int) -> int
(** [fill r read] makes room and calls [read buf pos len] once to append
    up to [len] bytes at [buf.\[pos\]]; its count, 0 at the end of the
    input. [read] is [Unix.read fd] or [In_channel.input ic]. *)

val feed : reader -> string -> int -> int -> unit
(** [feed r s off len] appends [s.\[off .. off+len)]. *)

val next_frame : reader -> (string, read_error) result option
(** The next complete frame's payload, [None] when the buffer holds only
    part of one. After an [Error] the bad frame stays at the front of
    the buffer and the stream cannot be resynchronized. *)

val claimed_size : reader -> int
(** The bytes the frame at the front claims, its header included, read
    from its header unchecked: after an [Error], where the bad frame
    ends if its length is believed. Raises [Invalid_argument] while less
    than a header is buffered. *)

val eof_error : reader -> read_error
(** What the end of the input means now ({!eof_after} the buffered
    bytes). *)

val buffered : reader -> int

val peek : reader -> int -> string
(** Up to the first [n] buffered bytes, without consuming them. *)
