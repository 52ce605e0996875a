(** Payload envelopes for the elastic-resharding control plane
    (DESIGN.md §17).

    The reshard coordinator lives in [grid_shard] but the participant
    state machine lives in {!Replica.Make}, which cannot see the shard
    layer — so the byte formats both sides speak are pinned here, next
    to the protocol types. The COMMIT payload needs no envelope: it is
    the encoded successor partition map, opaque to this layer (the
    replica only stores and echoes it). *)

module Wire = Grid_codec.Wire

(** FREEZE: the key range leaving this group and where it is going.
    Bounds are footprint keys, [lo] inclusive, [hi] exclusive ([None] =
    top of the keyspace). *)
type freeze = { f_lo : string; f_hi : string option; f_target : int }

let encode_freeze ~lo ~hi ~target =
  Wire.encode (fun e ->
      Wire.Encoder.string e lo;
      Wire.Encoder.option e (Wire.Encoder.string e) hi;
      Wire.Encoder.uint e target)

let decode_freeze s =
  Wire.decode s (fun d ->
      let f_lo = Wire.Decoder.string d in
      let f_hi = Wire.Decoder.option d Wire.Decoder.string in
      let f_target = Wire.Decoder.uint d in
      { f_lo; f_hi; f_target })

(** INSTALL: the shipped range snapshot arriving at the target group.
    [i_count] is the item count reported by the source's
    [export_range], kept for admin counters; [i_blob] is the opaque
    service slice fed to [import_range]. *)
type install = {
  i_lo : string;
  i_hi : string option;
  i_count : int;
  i_blob : string;
}

let encode_install ~lo ~hi ~count ~blob =
  Wire.encode (fun e ->
      Wire.Encoder.string e lo;
      Wire.Encoder.option e (Wire.Encoder.string e) hi;
      Wire.Encoder.uint e count;
      Wire.Encoder.string e blob)

let decode_install s =
  Wire.decode s (fun d ->
      let i_lo = Wire.Decoder.string d in
      let i_hi = Wire.Decoder.option d Wire.Decoder.string in
      let i_count = Wire.Decoder.uint d in
      let i_blob = Wire.Decoder.string d in
      { i_lo; i_hi; i_count; i_blob })

(** Participant snapshot section: the reshard state a replica derives
    from committed instances, carried in {!Snapshot} so a replica
    adopting a snapshot (catch-up, recovery, election) lands with the
    same migration view as one that replayed the log. *)
type participant = {
  p_epoch : int;  (** highest committed partition-map epoch *)
  p_map : string;  (** encoded map at [p_epoch]; [""] before any commit *)
  p_frozen : (int * string * string option * int) option;
      (** (epoch, lo, hi, target): committed FREEZE awaiting its decision *)
  p_installed : (int * string * string option * int) option;
      (** (epoch, lo, hi, count): committed INSTALL awaiting its decision *)
  p_moved : (string * string option) list;
      (** ranges this group handed away: requests touching them get
          [Wrong_epoch] *)
  p_aborted : int list;  (** abort tombstones, by epoch *)
  p_imported : int;  (** total items absorbed via INSTALL commits *)
}

let encode_participant p =
  Wire.encode (fun e ->
      Wire.Encoder.uint e p.p_epoch;
      Wire.Encoder.string e p.p_map;
      Wire.Encoder.option e
        (fun (ep, lo, hi, target) ->
          Wire.Encoder.uint e ep;
          Wire.Encoder.string e lo;
          Wire.Encoder.option e (Wire.Encoder.string e) hi;
          Wire.Encoder.uint e target)
        p.p_frozen;
      Wire.Encoder.option e
        (fun (ep, lo, hi, count) ->
          Wire.Encoder.uint e ep;
          Wire.Encoder.string e lo;
          Wire.Encoder.option e (Wire.Encoder.string e) hi;
          Wire.Encoder.uint e count)
        p.p_installed;
      Wire.Encoder.list e
        (fun (lo, hi) ->
          Wire.Encoder.string e lo;
          Wire.Encoder.option e (Wire.Encoder.string e) hi)
        p.p_moved;
      Wire.Encoder.list e (Wire.Encoder.uint e) p.p_aborted;
      Wire.Encoder.uint e p.p_imported)

let decode_participant s =
  Wire.decode s (fun d ->
      let p_epoch = Wire.Decoder.uint d in
      let p_map = Wire.Decoder.string d in
      let p_frozen =
        Wire.Decoder.option d (fun d ->
            let ep = Wire.Decoder.uint d in
            let lo = Wire.Decoder.string d in
            let hi = Wire.Decoder.option d Wire.Decoder.string in
            let target = Wire.Decoder.uint d in
            (ep, lo, hi, target))
      in
      let p_installed =
        Wire.Decoder.option d (fun d ->
            let ep = Wire.Decoder.uint d in
            let lo = Wire.Decoder.string d in
            let hi = Wire.Decoder.option d Wire.Decoder.string in
            let count = Wire.Decoder.uint d in
            (ep, lo, hi, count))
      in
      let p_moved =
        Wire.Decoder.list d (fun d ->
            let lo = Wire.Decoder.string d in
            let hi = Wire.Decoder.option d Wire.Decoder.string in
            (lo, hi))
      in
      let p_aborted = Wire.Decoder.list d Wire.Decoder.uint in
      let p_imported = Wire.Decoder.uint d in
      { p_epoch; p_map; p_frozen; p_installed; p_moved; p_aborted; p_imported })

(** Subtract [\[lo, hi)] from every range in the list. An imported range
    restores ownership of whatever part of a previously handed-away
    range it covers — the two transitions need not share cut points (a
    merge can bring back a wider range than the split that left). *)
let range_subtract ranges ~lo ~hi =
  let lt a b = String.compare a b < 0 in
  let le a b = String.compare a b <= 0 in
  List.concat_map
    (fun (l, h) ->
      let disjoint =
        (match hi with Some ih -> le ih l | None -> false)
        || match h with Some h -> le h lo | None -> false
      in
      if disjoint then [ (l, h) ]
      else
        let left = if lt l lo then [ (l, Some lo) ] else [] in
        let right =
          match hi with
          | None -> []
          | Some ih -> (
            match h with
            | None -> [ (ih, None) ]
            | Some h when lt ih h -> [ (ih, Some h) ]
            | Some _ -> [])
        in
        left @ right)
    ranges
