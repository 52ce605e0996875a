(** Replica snapshots: everything a lagging or recovering replica needs to
    join the group at a given commit point — the encoded service state,
    the committed prefix length, the client deduplication table (so
    duplicate requests keep getting their original replies), and the 2PC
    participant tables (prepared cross-shard branches awaiting their
    decision, plus decision tombstones), since log pruning may have
    dropped the instances they were derived from. *)

module Wire = Grid_codec.Wire
module Ids = Grid_util.Ids

type t = {
  commit_point : int;
  state : string;  (** service state, encoded by the service codec *)
  dedup : (int * Types.reply) list;
      (** per client-id: highest committed sequence's reply *)
  prepared : (int * string) list;
      (** per cross-txn tid: the encoded prepared branch (opaque here;
          {!Committed} owns the codec, and captures and restores every
          table of this record) *)
  outcomes : (int * bool) list;
      (** per decided cross-txn tid: [true] = committed *)
  reshard : string;
      (** encoded {!Reshard_wire.participant} — the migration state the
          replica derived from committed [Reshard_*] instances; [""] on
          images persisted before resharding existed *)
}

(* The fields after the state. *)
let encode_tables e t =
  Wire.Encoder.list e
    (fun (client, reply) ->
      Wire.Encoder.uint e client;
      Types.encode_reply e reply)
    t.dedup;
  Wire.Encoder.list e
    (fun (tid, branch) ->
      Wire.Encoder.uint e tid;
      Wire.Encoder.string e branch)
    t.prepared;
  Wire.Encoder.list e
    (fun (tid, committed) ->
      Wire.Encoder.uint e tid;
      Wire.Encoder.bool e committed)
    t.outcomes;
  Wire.Encoder.string e t.reshard

(* [t]'s bytes with the state's (its length, then its bytes) taken from
   the encoder [state] instead of [t.state], which is not read. They are
   built in one string of their exact size: a replica encodes its state
   into an encoder it keeps, so a large state is copied once per
   snapshot, and no second encoder grows to hold it. *)
let encode_with ~state t =
  let n = Wire.Encoder.length state in
  let head =
    Wire.encode (fun e ->
        Wire.Encoder.uint e t.commit_point;
        Wire.Encoder.uint e n)
  in
  let tables = Wire.encode (fun e -> encode_tables e t) in
  let h = String.length head in
  let b = Bytes.create (h + n + String.length tables) in
  Bytes.blit_string head 0 b 0 h;
  Wire.Encoder.blit state b h;
  Bytes.blit_string tables 0 b (h + n) (String.length tables);
  Bytes.unsafe_to_string b

let encode t =
  let state = Wire.Encoder.create ~initial_size:(String.length t.state) () in
  Wire.Encoder.raw state t.state;
  encode_with ~state t

let decode s =
  Wire.decode s (fun d ->
      let commit_point = Wire.Decoder.uint d in
      let state = Wire.Decoder.string d in
      let dedup =
        Wire.Decoder.list d (fun d ->
            let client = Wire.Decoder.uint d in
            let reply = Types.decode_reply d in
            (client, reply))
      in
      (* Snapshots persisted before the 2PC tables existed end here. *)
      let prepared =
        if Wire.Decoder.at_end d then []
        else
          Wire.Decoder.list d (fun d ->
              let tid = Wire.Decoder.uint d in
              let branch = Wire.Decoder.string d in
              (tid, branch))
      in
      let outcomes =
        if Wire.Decoder.at_end d then []
        else
          Wire.Decoder.list d (fun d ->
              let tid = Wire.Decoder.uint d in
              let committed = Wire.Decoder.bool d in
              (tid, committed))
      in
      let reshard = if Wire.Decoder.at_end d then "" else Wire.Decoder.string d in
      { commit_point; state; dedup; prepared; outcomes; reshard })
