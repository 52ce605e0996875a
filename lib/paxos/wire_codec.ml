(** Versioned wire codecs for {!Types.msg}, behind the
    {!Grid_codec.Wire_intf.WIRE} signature the transport is functorized
    over.

    There is one body codec per message ({!encode_body},
    {!decode_body}), over the request and proposal layouts of {!Types}.
    Three flags say which optional fields a body carries:
    {ul
     {- [traced]: every request body carries its [tid]/[parent] trace
        context; when clear it is left out and decodes as
        {!Types.no_trace};}
     {- [lease]: a [Read_confirm] or [Heartbeat] carries its
        [lease_anchor]; when clear the 8-byte float is left out and
        decodes as [nan];}
     {- [aligned]: every proposal's replies line up 1:1 with its
        requests, so reply bodies leave out the request-id echo.}}
    A wire version is a setting of these flags plus how the tag is
    framed:

    {b V1} is the seed's unversioned encoding, byte-identical to what
    every build since the seed has spoken: no header, the
    message-tag varint (always [< 0x10]), then the body with every field
    present ([traced], [lease], not [aligned]).

    {b V2} prefixes a two-byte compact header whose flags drop the
    fields that are almost always absent on the hot path:

    - byte 0: magic nibble [0xA] | version nibble [2]
      ({!Grid_codec.Wire_intf.header_byte});
    - byte 1: constructor tag (low nibble; [0xF] escapes to a varint for
      future tags) | the flags [TRACED] (bit 4), [LEASE] (bit 5) and
      [ALIGNED] (bit 6). Bit 7 is reserved and rejected.

    The flags are a function of the message ([flags_of]): [TRACED] iff
    some request it carries has a trace, [ALIGNED] iff it carries
    proposals and each one's replies answer its requests in order,
    [LEASE] iff it carries a lease anchor. So [TRACED] can be set only
    on [Client_req], [Prepare_ack], [Accept], [Sp_estimate],
    [Sp_propose] and [Sp_decide]; [ALIGNED] only on those but
    [Client_req]; [LEASE] only on [Read_confirm] and [Heartbeat]. The
    decoder rejects, at the flag byte, a frame whose flags differ from
    those of the message it decodes to: a flipped or stray flag never
    decodes to a valid message, and a message's header byte is unique.

    The decoder reads every flag from the header, so a body that
    disagrees with its flags (a lease float with [LEASE] clear, or none
    with it set) fails as trailing bytes or a truncation. A V2 frame
    read by the V1 decoder fails its tag check ([0xA2] is not a known
    tag) and a V1 frame read by the V2 decoder fails the magic check —
    misnegotiation yields a typed decode error, never a garbage message.

    Version negotiation: the dial-time hello exchange carries each
    side's highest supported version and both sides settle on the
    minimum ({!negotiate}), so a cluster can be upgraded one replica at
    a time while mixed-version pairs keep talking V1. *)

module Wire = Grid_codec.Wire
module Wire_intf = Grid_codec.Wire_intf
module Ids = Grid_util.Ids
open Types

let min_version = 1
let latest_version = 2

let negotiate ~local_max ~peer_max =
  let v = min local_max peer_max in
  if v >= min_version then Some v else None

let encode_body e ~traced ~aligned ~lease = function
  | Client_req r -> encode_request_with e ~traced r
  | Reply_msg r -> encode_reply e r
  | Prepare { ballot; commit_point } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e commit_point
  | Prepare_ack { ballot; commit_point; snapshot; accepted } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e commit_point;
    Wire.Encoder.option e (Wire.Encoder.string e) snapshot;
    Wire.Encoder.list e
      (fun (entry : recovery_entry) ->
        Wire.Encoder.uint e entry.instance;
        Ballot.encode e entry.ballot;
        encode_proposal_with e ~traced ~aligned entry.proposal)
      accepted
  | Accept { ballot; instance; proposal } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance;
    encode_proposal_with e ~traced ~aligned proposal
  | Accept_ack { ballot; instance } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance
  | Reject { promised } -> Ballot.encode e promised
  | Commit { ballot; instance } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e instance
  | Read_confirm { ballot; req; lease_anchor } ->
    Ballot.encode e ballot;
    Wire.Encoder.uint e (Ids.Client_id.to_int req.client);
    Wire.Encoder.uint e req.seq;
    if lease then Wire.Encoder.float e lease_anchor
  | Heartbeat { round_seen; commit_point; promised; sent_at; lease_anchor } ->
    Wire.Encoder.uint e round_seen;
    Wire.Encoder.uint e commit_point;
    Ballot.encode e promised;
    Wire.Encoder.float e sent_at;
    if lease then Wire.Encoder.float e lease_anchor
  | Catchup_req { from_instance } -> Wire.Encoder.uint e from_instance
  | Catchup { snapshot } -> Wire.Encoder.string e snapshot
  | Sp_estimate { instance; round; estimate } ->
    Wire.Encoder.uint e instance;
    Wire.Encoder.uint e round;
    Wire.Encoder.option e
      (fun (p, r) ->
        encode_proposal_with e ~traced ~aligned p;
        Wire.Encoder.uint e r)
      estimate
  | Sp_propose { instance; round; proposal } ->
    Wire.Encoder.uint e instance;
    Wire.Encoder.uint e round;
    encode_proposal_with e ~traced ~aligned proposal
  | Sp_ack { instance; round } ->
    Wire.Encoder.uint e instance;
    Wire.Encoder.uint e round
  | Sp_decide { instance; proposal } ->
    Wire.Encoder.uint e instance;
    encode_proposal_with e ~traced ~aligned proposal

(* [tag_pos] is where the tag starts in the frame, which an unknown tag's
   error names. *)
let decode_body d ~tag ~tag_pos ~traced ~aligned ~lease =
  match tag with
  | 0 -> Client_req (decode_request_with d ~traced)
  | 1 -> Reply_msg (decode_reply d)
  | 2 ->
    let ballot = Ballot.decode d in
    let commit_point = Wire.Decoder.uint d in
    Prepare { ballot; commit_point }
  | 3 ->
    let ballot = Ballot.decode d in
    let commit_point = Wire.Decoder.uint d in
    let snapshot = Wire.Decoder.option d Wire.Decoder.string in
    let accepted =
      Wire.Decoder.list d (fun d ->
          let instance = Wire.Decoder.uint d in
          let ballot = Ballot.decode d in
          let proposal = decode_proposal_with d ~traced ~aligned in
          { instance; ballot; proposal })
    in
    Prepare_ack { ballot; commit_point; snapshot; accepted }
  | 4 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    let proposal = decode_proposal_with d ~traced ~aligned in
    Accept { ballot; instance; proposal }
  | 5 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    Accept_ack { ballot; instance }
  | 6 -> Reject { promised = Ballot.decode d }
  | 7 ->
    let ballot = Ballot.decode d in
    let instance = Wire.Decoder.uint d in
    Commit { ballot; instance }
  | 8 ->
    let ballot = Ballot.decode d in
    let client = Ids.Client_id.of_int (Wire.Decoder.uint d) in
    let seq = Wire.Decoder.uint d in
    let lease_anchor = if lease then Wire.Decoder.float d else Float.nan in
    Read_confirm { ballot; req = Ids.Request_id.make ~client ~seq; lease_anchor }
  | 9 ->
    let round_seen = Wire.Decoder.uint d in
    let commit_point = Wire.Decoder.uint d in
    let promised = Ballot.decode d in
    let sent_at = Wire.Decoder.float d in
    let lease_anchor = if lease then Wire.Decoder.float d else Float.nan in
    Heartbeat { round_seen; commit_point; promised; sent_at; lease_anchor }
  | 10 -> Catchup_req { from_instance = Wire.Decoder.uint d }
  | 11 -> Catchup { snapshot = Wire.Decoder.string d }
  | 12 ->
    let instance = Wire.Decoder.uint d in
    let round = Wire.Decoder.uint d in
    let estimate =
      Wire.Decoder.option d (fun d ->
          let p = decode_proposal_with d ~traced ~aligned in
          let r = Wire.Decoder.uint d in
          (p, r))
    in
    Sp_estimate { instance; round; estimate }
  | 13 ->
    let instance = Wire.Decoder.uint d in
    let round = Wire.Decoder.uint d in
    let proposal = decode_proposal_with d ~traced ~aligned in
    Sp_propose { instance; round; proposal }
  | 14 ->
    let instance = Wire.Decoder.uint d in
    let round = Wire.Decoder.uint d in
    Sp_ack { instance; round }
  | 15 ->
    let instance = Wire.Decoder.uint d in
    let proposal = decode_proposal_with d ~traced ~aligned in
    Sp_decide { instance; proposal }
  | n ->
    raise (Wire.Decode_error { pos = tag_pos; msg = Printf.sprintf "bad msg tag %d" n })

module V1 = struct
  type msg = Types.msg

  let version = 1

  let encode m =
    Wire.encode (fun e ->
        Wire.Encoder.uint e (msg_tag m);
        encode_body e ~traced:true ~aligned:false ~lease:true m)

  let decode s =
    match
      Wire.decode s (fun d ->
          let tag = Wire.Decoder.uint d in
          decode_body d ~tag ~tag_pos:0 ~traced:true ~aligned:false ~lease:true)
    with
    | m -> Stdlib.Ok m
    | exception Wire.Decode_error { pos; msg } ->
      Error { Wire_intf.version = 1; pos; msg }
end

module V2 = struct
  type msg = Types.msg

  let version = 2

  (* Header flags (byte 1, bits 4-6). *)
  let f_traced = 0x10
  let f_lease = 0x20
  let f_aligned = 0x40

  let request_traced (r : request) = r.trace.tid <> 0 || r.trace.parent <> ""

  let msg_requests = function
    | Client_req r -> [ r ]
    | Accept { proposal; _ } | Sp_propose { proposal; _ } | Sp_decide { proposal; _ }
      ->
      proposal.requests
    | Sp_estimate { estimate = Some (p, _); _ } -> p.requests
    | Prepare_ack { accepted; _ } ->
      List.concat_map (fun (e : recovery_entry) -> e.proposal.requests) accepted
    | _ -> []

  let msg_proposals = function
    | Accept { proposal; _ } | Sp_propose { proposal; _ } | Sp_decide { proposal; _ }
      ->
      [ proposal ]
    | Sp_estimate { estimate = Some (p, _); _ } -> [ p ]
    | Prepare_ack { accepted; _ } ->
      List.map (fun (e : recovery_entry) -> e.proposal) accepted
    | _ -> []

  let proposal_aligned (p : proposal) =
    List.length p.requests = List.length p.replies
    && List.for_all2
         (fun (rq : request) (rp : reply) -> rp.req = rq.id)
         p.requests p.replies

  let msg_lease_present = function
    | Read_confirm { lease_anchor; _ } | Heartbeat { lease_anchor; _ } ->
      not (Float.is_nan lease_anchor)
    | _ -> false

  let flags_of (m : msg) =
    let proposals = msg_proposals m in
    (if List.exists request_traced (msg_requests m) then f_traced else 0)
    lor (if proposals <> [] && List.for_all proposal_aligned proposals then
           f_aligned
         else 0)
    lor if msg_lease_present m then f_lease else 0

  let encode (m : msg) =
    let tag = msg_tag m in
    let flags = flags_of m in
    Wire.encode (fun e ->
        Wire.Encoder.char e (Wire_intf.header_byte ~version);
        let nibble = if tag < 0xF then tag else 0xF in
        Wire.Encoder.char e (Char.chr (nibble lor flags));
        if tag >= 0xF then Wire.Encoder.uint e (tag - 0xF);
        encode_body e ~traced:(flags land f_traced <> 0)
          ~aligned:(flags land f_aligned <> 0) ~lease:(flags land f_lease <> 0) m)

  let decode s =
    match
      if String.length s < 2 then
        raise (Wire.Decode_error { pos = 0; msg = "frame too short for v2 header" });
      (match Wire_intf.header_version s with
      | None ->
        raise (Wire.Decode_error { pos = 0; msg = "bad magic nibble" })
      | Some v when v <> version ->
        raise
          (Wire.Decode_error
             { pos = 0; msg = Printf.sprintf "header version %d, expected %d" v version })
      | Some _ -> ());
      let d = Wire.Decoder.of_string ~pos:1 s in
      let b = Char.code (Wire.Decoder.char d) in
      if b land 0x80 <> 0 then
        raise (Wire.Decode_error { pos = 1; msg = "reserved flag bit set" });
      let nibble = b land 0xF in
      let tag = if nibble < 0xF then nibble else 0xF + Wire.Decoder.uint d in
      let m =
        decode_body d ~tag ~tag_pos:1 ~traced:(b land f_traced <> 0)
          ~aligned:(b land f_aligned <> 0) ~lease:(b land f_lease <> 0)
      in
      let flags = flags_of m in
      if flags <> b land 0x70 then
        raise
          (Wire.Decode_error
             {
               pos = 1;
               msg =
                 Printf.sprintf "flags 0x%02x, the message's are 0x%02x"
                   (b land 0x70) flags;
             });
      Wire.Decoder.expect_end d;
      m
    with
    | m -> Stdlib.Ok m
    | exception Wire.Decode_error { pos; msg } ->
      Error { Wire_intf.version = 2; pos; msg }
end

type codec = (module Wire_intf.WIRE with type msg = Types.msg)

let of_version : int -> codec option = function
  | 1 -> Some (module V1)
  | 2 -> Some (module V2)
  | _ -> None

let of_version_exn v =
  match of_version v with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Wire_codec.of_version_exn: version %d" v)

let all : codec list = [ (module V1); (module V2) ]
