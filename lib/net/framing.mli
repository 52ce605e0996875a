(** Length-prefixed, CRC-protected message framing over file descriptors.

    Frame layout: 4-byte little-endian payload length, then the payload
    with the 4-byte CRC32 trailer of {!Grid_codec.Wire.with_crc}. The
    maximum frame size guards against corrupt length headers.

    Reads return typed [result] values — [Eof] for a peer that hung up
    between frames, [`Corrupt`] for bad lengths, CRC mismatches,
    truncated bodies, or payloads the codec rejects — so reader loops
    can tell corruption from normal disconnects instead of both
    unwinding as exceptions. The blocking write path still raises
    ({!Closed} / [Unix.Unix_error]).

    Two ways to read: {!read_frame} blocks on a descriptor until one
    frame is in, and the incremental {!reader} takes bytes as they arrive
    (from a non-blocking socket or from memory) and yields every complete
    frame. Fed the same bytes, both yield the same frames and the same
    first error. The {!writer} is the matching output queue. *)

exception Closed
(** Raised by writes on EOF or a closed peer. *)

type read_error =
  | Eof  (** peer closed the connection cleanly, between frames *)
  | Corrupt of { pos : int; msg : string }
      (** frame or payload failed validation; the stream cannot be
          resynchronized and the connection must be dropped *)

val pp_read_error : Format.formatter -> read_error -> unit

val max_frame : int
(** 16 MiB. *)

val write_frame : Unix.file_descr -> string -> int
(** Write one frame (payload without CRC; the trailer is added here) and
    return the bytes put on the wire (header + payload + CRC). Raises
    {!Closed} / [Unix.Unix_error] on socket errors. *)

val read_frame : Unix.file_descr -> (string, read_error) result
(** Read one frame, verify the CRC, and return the payload. EOF before
    the first byte is [Eof]; EOF inside the header or the body is
    [Corrupt]. *)

(** {2 Incremental reader} *)

type reader
(** Bytes received and not yet parsed. The buffer starts at 1 KiB, grows
    only while one frame does not fit, and drops back to 1 KiB once it
    drains. *)

val reader : unit -> reader

val read_from : reader -> Unix.file_descr -> int
(** One [read] into the buffer; the byte count, 0 at EOF. Raises
    [Unix.Unix_error] as [read] does ([EAGAIN] on a non-blocking socket
    with nothing to read). *)

val feed : reader -> string -> int -> int -> unit
(** [feed r s off len] appends [s.[off .. off+len)]. *)

val next_frame : reader -> (string, read_error) result option
(** The next complete frame's payload, [None] when the buffer holds only
    part of one. After an [Error] the stream cannot be resynchronized. *)

val eof_error : reader -> read_error
(** What EOF means now: [Eof] between frames, [Corrupt] inside one. *)

val buffered : reader -> int

val peek : reader -> int -> string
(** Up to the first [n] buffered bytes, without consuming them. *)

(** {2 Output queue} *)

type writer
(** Frames waiting for a writable socket, each its own string: an empty
    queue holds no buffer. *)

val writer : unit -> writer

val add_frame : writer -> string -> int
(** Append one frame (payload without CRC) and return its on-wire size. *)

val queued : writer -> int
(** Bytes not yet written. *)

val flush : writer -> Unix.file_descr -> unit
(** Write until the queue is empty or the socket would block. Raises
    [Unix.Unix_error] on other socket errors. *)

val write_hello : Unix.file_descr -> node_id:int -> max_version:int -> unit
(** Connection handshake frame: node id plus the highest wire-protocol
    version the sender speaks. Sent dialer-first; the listener answers
    with its own hello and both sides settle on the minimum (see
    {!Grid_paxos.Wire_codec.negotiate}). *)

val read_hello : Unix.file_descr -> (int * int, read_error) result
(** [(node_id, max_version)]. Hellos from pre-versioning builds carry no
    version field and decode as [max_version = 1]. *)

val hello : node_id:int -> max_version:int -> string
(** The hello frame's payload, for {!add_frame}. *)

val decode_hello : string -> (int * int, read_error) result
(** {!read_hello} on a payload already read. *)

(** Per-connection message codec, instantiated with the negotiated
    {!Grid_codec.Wire_intf.WIRE} version. Both directions report the
    on-wire byte count (frame header + payload + CRC trailer) for the
    transport's byte counters. *)
module Codec (W : Grid_codec.Wire_intf.WIRE with type msg = Grid_paxos.Types.msg) : sig
  val version : int
  val encode : Grid_paxos.Types.msg -> string
  (** The frame payload, for {!add_frame}. *)

  val decode : string -> (Grid_paxos.Types.msg * int, read_error) result
  (** A payload from {!next_frame}, with its on-wire size. *)

  val write_msg : Unix.file_descr -> Grid_paxos.Types.msg -> int
  val read_msg : Unix.file_descr -> (Grid_paxos.Types.msg * int, read_error) result
end
