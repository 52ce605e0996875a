module Wire = Grid_codec.Wire
module Frame = Grid_codec.Frame

type persisted = {
  promised : Types.Ballot.t;
  entries : Types.recovery_entry list;
  commit_point : int;
  snapshot : string option;
}

type recovery_report = {
  frames_ok : int;
  records_dropped : int;
  bytes_salvaged : int;
  bytes_dropped : int;
  torn_tail : bool;
  interior_corruption : bool;
  snapshot_used : bool;
  snapshot_corrupt : bool;
  log_truncated : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "frames=%d dropped=%d salvaged=%dB lost=%dB torn=%b interior=%b snap=%b snap_bad=%b \
     truncated=%b"
    r.frames_ok r.records_dropped r.bytes_salvaged r.bytes_dropped r.torn_tail
    r.interior_corruption r.snapshot_used r.snapshot_corrupt r.log_truncated

type t = {
  persist_promise : Types.Ballot.t -> unit;
  persist_entry : instance:int -> ballot:Types.Ballot.t -> Types.proposal -> unit;
  persist_commit : int -> unit;
  persist_snapshot : string -> unit;
}

let apply t = function
  | Types.Promise b -> t.persist_promise b
  | Entry { instance; ballot; proposal } -> t.persist_entry ~instance ~ballot proposal
  | Commit_point cp -> t.persist_commit cp
  | Snapshot s -> t.persist_snapshot s

let memory () =
  let promised = ref Types.Ballot.zero in
  let entries : (int, Types.recovery_entry) Hashtbl.t = Hashtbl.create 32 in
  let commit_point = ref 0 in
  let snapshot = ref None in
  let store =
    {
      persist_promise = (fun b -> promised := b);
      persist_entry =
        (fun ~instance ~ballot proposal ->
          Hashtbl.replace entries instance { Types.instance; ballot; proposal });
      persist_commit = (fun cp -> if cp > !commit_point then commit_point := cp);
      persist_snapshot = (fun s -> snapshot := Some s);
    }
  in
  let read () =
    {
      promised = !promised;
      entries = Hashtbl.fold (fun _ e acc -> e :: acc) entries [];
      commit_point = !commit_point;
      snapshot = !snapshot;
    }
  in
  (store, read)

(* File backend: one append-only log of {!Frame} records, the wire's
   frames, plus a last-snapshot-wins snapshot file holding
   [Wire.with_crc] of the snapshot. *)

let rec_promise = 0
and rec_entry = 1
and rec_commit = 2

(* One frame and one flush per record. *)
let write_record oc tag body =
  output_string oc
    (Frame.frame
       (Wire.encode (fun e ->
            Wire.Encoder.uint e tag;
            body e)));
  flush oc

(* The image recovery folds the log's records into, as they are read. *)
type image = {
  mutable promised : Types.Ballot.t;
  entries : (int, Types.recovery_entry) Hashtbl.t;
  mutable commit_point : int;
  mutable frames : int;  (* CRC-valid frames *)
  mutable dropped : int;  (* of which failed to decode *)
}

(* A record that passed its CRC but still fails to decode (an unknown
   tag, a malformed body: written by a newer version) is skipped and
   counted rather than aborting recovery. *)
let replay img payload =
  img.frames <- img.frames + 1;
  let d = Wire.Decoder.of_string payload in
  try
    match Wire.Decoder.uint d with
    | tag when tag = rec_promise -> img.promised <- Types.Ballot.decode d
    | tag when tag = rec_entry ->
      let instance = Wire.Decoder.uint d in
      let ballot = Types.Ballot.decode d in
      let proposal = Types.decode_proposal d in
      Hashtbl.replace img.entries instance { Types.instance; ballot; proposal }
    | tag when tag = rec_commit ->
      let cp = Wire.Decoder.uint d in
      if cp > img.commit_point then img.commit_point <- cp
    | _ -> img.dropped <- img.dropped + 1
  with Wire.Decode_error _ -> img.dropped <- img.dropped + 1

(* Fold the log's longest valid prefix into [img], read in chunks
   through the frame reader; no frame is bounded by more than the log's
   own length. Returns the prefix's length, the file's, and what ended
   the scan: [`Eof] (a clean end), [`Torn] (a frame cut short, or a bad
   frame whose claimed end reaches the end of the file) or [`Interior]
   (a bad frame with bytes behind it: a bit flip or a partial overwrite
   inside the log). Lengths past a bad frame cannot be trusted, so the
   rest is abandoned. *)
let scan_log path img =
  if not (Sys.file_exists path) then (0, 0, `Eof)
  else
    In_channel.with_open_bin path (fun ic ->
        let file_len = Int64.to_int (In_channel.length ic) in
        let r = Frame.reader ~max:file_len and read = In_channel.input ic in
        let rec go valid =
          match Frame.next_frame r with
          | Some (Ok payload) ->
            replay img payload;
            go (valid + Frame.overhead + String.length payload)
          | Some (Error _) ->
            (valid, if valid + Frame.claimed_size r >= file_len then `Torn else `Interior)
          | None when Frame.fill r read > 0 -> go valid
          | None -> (valid, if Frame.eof_error r = Frame.Eof then `Eof else `Torn)
        in
        let valid, ending = go 0 in
        (valid, file_len, ending))

let file ~path =
  let log_path = path ^ ".log" and snap_path = path ^ ".snap" in
  let img =
    { promised = Types.Ballot.zero; entries = Hashtbl.create 32; commit_point = 0;
      frames = 0; dropped = 0 }
  in
  let valid_len, file_len, ending = scan_log log_path img in
  let snapshot, snapshot_corrupt =
    if Sys.file_exists snap_path then
      match Wire.check_crc (In_channel.with_open_bin snap_path In_channel.input_all) with
      | body -> (Some body, false)
      | exception Wire.Decode_error _ -> (None, true)
    else (None, false)
  in
  let recovered =
    if img.frames = 0 && snapshot = None then None
    else
      Some
        {
          promised = img.promised;
          entries = Hashtbl.fold (fun _ e acc -> e :: acc) img.entries [];
          commit_point = img.commit_point;
          snapshot;
        }
  in
  (* Salvage: cut the log back to its valid prefix, in place, so new
     appends are readable on the next recovery instead of hiding behind
     the corrupt suffix. The prefix itself is never rewritten. *)
  let log_truncated = valid_len < file_len in
  if log_truncated then Unix.truncate log_path valid_len;
  let report =
    {
      frames_ok = img.frames;
      records_dropped = img.dropped;
      bytes_salvaged = valid_len;
      bytes_dropped = file_len - valid_len;
      torn_tail = ending = `Torn;
      interior_corruption = ending = `Interior;
      snapshot_used = snapshot <> None;
      snapshot_corrupt;
      log_truncated;
    }
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 log_path in
  let store =
    {
      persist_promise = (fun b -> write_record oc rec_promise (fun e -> Types.Ballot.encode e b));
      persist_entry =
        (fun ~instance ~ballot proposal ->
          write_record oc rec_entry (fun e ->
              Wire.Encoder.uint e instance;
              Types.Ballot.encode e ballot;
              Types.encode_proposal e proposal));
      persist_commit = (fun cp -> write_record oc rec_commit (fun e -> Wire.Encoder.uint e cp));
      persist_snapshot =
        (fun s ->
          let tmp = snap_path ^ ".tmp" in
          Out_channel.with_open_bin tmp (fun soc ->
              output_string soc s;
              output_string soc (Frame.trailer s));
          Sys.rename tmp snap_path);
    }
  in
  (store, recovered, report)
