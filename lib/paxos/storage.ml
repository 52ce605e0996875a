module Wire = Grid_codec.Wire
module Rng = Grid_util.Rng

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

let clean_report =
  {
    frames_ok = 0;
    records_dropped = 0;
    bytes_salvaged = 0;
    bytes_dropped = 0;
    torn_tail = false;
    interior_corruption = false;
    snapshot_used = false;
    snapshot_corrupt = false;
    log_truncated = false;
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

let null () =
  {
    persist_promise = (fun _ -> ());
    persist_entry = (fun ~instance:_ ~ballot:_ _ -> ());
    persist_commit = (fun _ -> ());
    persist_snapshot = (fun _ -> ());
  }

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

(* File backend: one append-only log of CRC-framed records plus a
   last-snapshot-wins snapshot file. Record framing: u32-le length, then
   [with_crc] payload. *)

let rec_promise = 0
and rec_entry = 1
and rec_commit = 2

let encode_record tag body =
  Wire.encode (fun e ->
      Wire.Encoder.uint e tag;
      body e)

let write_frame oc payload =
  let framed = Wire.with_crc payload in
  let len = String.length framed in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr (len land 0xFF));
  Bytes.set hdr 1 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set hdr 2 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set hdr 3 (Char.chr ((len lsr 24) land 0xFF));
  output_bytes oc hdr;
  output_string oc framed;
  flush oc

(* Read the longest valid prefix of CRC-framed records. Returns the
   frames, the byte length of that prefix, and what ended the scan:
   [`Eof] (clean end), [`Torn] (truncated or CRC-failed final record), or
   [`Interior] (a corrupt record with more data behind it — a bit flip or
   partial overwrite inside the log). We cannot resynchronise past a
   corrupt record (lengths are untrusted), so the suffix is abandoned and
   the caller salvages the prefix. *)
let read_frames path =
  if not (Sys.file_exists path) then ([], 0, `Eof, 0)
  else begin
    let ic = open_in_bin path in
    let file_len = in_channel_length ic in
    let frames = ref [] in
    let valid_len = ref 0 in
    let ending = ref `Eof in
    (try
       let rec loop () =
         let hdr = really_input_string ic 4 in
         let len =
           Char.code hdr.[0]
           lor (Char.code hdr.[1] lsl 8)
           lor (Char.code hdr.[2] lsl 16)
           lor (Char.code hdr.[3] lsl 24)
         in
         (* An absurd length is itself corruption (a flipped header bit);
            treating it as a read larger than the file lands in [`Torn]
            or [`Interior] below. *)
         let framed = really_input_string ic len in
         match Wire.check_crc framed with
         | payload ->
           frames := payload :: !frames;
           valid_len := pos_in ic;
           loop ()
         | exception Wire.Decode_error _ ->
           ending := (if pos_in ic >= file_len then `Torn else `Interior)
       in
       loop ()
     with End_of_file ->
       (* Truncated header or payload: torn unless valid data follows the
          failed read position (only possible when a header length
          overshot the remaining bytes mid-file, which we cannot
          distinguish from a tear — treat as torn). *)
       if !valid_len < file_len then ending := `Torn);
    close_in ic;
    (List.rev !frames, !valid_len, !ending, file_len)
  end

let decode_entry_record d =
  let instance = Wire.Decoder.uint d in
  let ballot = Types.Ballot.decode d in
  let proposal = Types.decode_proposal d in
  { Types.instance; ballot; proposal }

(* Replay CRC-validated records. A record that passed its CRC but still
   fails to decode (unknown tag, malformed body — e.g. written by a newer
   version) is skipped and counted rather than aborting recovery. *)
let replay_log frames =
  let promised = ref Types.Ballot.zero in
  let entries : (int, Types.recovery_entry) Hashtbl.t = Hashtbl.create 32 in
  let commit_point = ref 0 in
  let dropped = ref 0 in
  List.iter
    (fun payload ->
      let d = Wire.Decoder.of_string payload in
      match
        (match Wire.Decoder.uint d with
        | tag when tag = rec_promise -> promised := Types.Ballot.decode d
        | tag when tag = rec_entry ->
          let e = decode_entry_record d in
          Hashtbl.replace entries e.instance e
        | tag when tag = rec_commit ->
          let cp = Wire.Decoder.uint d in
          if cp > !commit_point then commit_point := cp
        | tag ->
          raise
            (Wire.Decode_error { pos = 0; msg = Printf.sprintf "unknown record tag %d" tag }))
      with
      | () -> ()
      | exception Wire.Decode_error _ -> incr dropped)
    frames;
  (!promised, Hashtbl.fold (fun _ e acc -> e :: acc) entries [], !commit_point, !dropped)

let file ~path =
  let log_path = path ^ ".log" and snap_path = path ^ ".snap" in
  let frames, valid_len, ending, file_len = read_frames log_path in
  let snapshot, snapshot_corrupt =
    if Sys.file_exists snap_path then begin
      let ic = open_in_bin snap_path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      match Wire.check_crc s with
      | body -> (Some body, false)
      | exception Wire.Decode_error _ -> (None, true)
    end
    else (None, false)
  in
  let recovered, records_dropped =
    if frames = [] && snapshot = None then (None, 0)
    else begin
      let promised, entries, commit_point, dropped = replay_log frames in
      (Some { promised; entries; commit_point; snapshot }, dropped)
    end
  in
  (* Salvage: cut the log back to its valid prefix so new appends are
     readable on the next recovery instead of hiding behind the corrupt
     suffix. *)
  let log_truncated =
    if valid_len < file_len then begin
      let prefix =
        if valid_len = 0 then ""
        else begin
          let ic = open_in_bin log_path in
          let p = really_input_string ic valid_len in
          close_in ic;
          p
        end
      in
      let oc = open_out_bin log_path in
      output_string oc prefix;
      close_out oc;
      true
    end
    else false
  in
  let report =
    {
      frames_ok = List.length frames;
      records_dropped;
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
      persist_promise =
        (fun b -> write_frame oc (encode_record rec_promise (fun e -> Types.Ballot.encode e b)));
      persist_entry =
        (fun ~instance ~ballot proposal ->
          write_frame oc
            (encode_record rec_entry (fun e ->
                 Wire.Encoder.uint e instance;
                 Types.Ballot.encode e ballot;
                 Types.encode_proposal e proposal)));
      persist_commit =
        (fun cp -> write_frame oc (encode_record rec_commit (fun e -> Wire.Encoder.uint e cp)));
      persist_snapshot =
        (fun s ->
          let tmp = snap_path ^ ".tmp" in
          let soc = open_out_bin tmp in
          output_string soc (Wire.with_crc s);
          close_out soc;
          Sys.rename tmp snap_path);
    }
  in
  (store, recovered, report)

(* ------------------------------------------------------------------ *)
(* Nemesis: fault-injecting storage wrapper and file-corruption helpers *)

exception Crashed

type fault_ctl = {
  mutable tear_rate : float;
  mutable drop_rate : float;
  mutable drop_meta_only : bool;
  mutable torn : int;
  mutable dropped : int;
}

let faulty ~rng ?(tear_rate = 0.0) ?(drop_rate = 0.0) ?(drop_meta_only = true) inner =
  let ctl = { tear_rate; drop_rate; drop_meta_only; torn = 0; dropped = 0 } in
  (* A tear models the process dying mid-write: the record is lost AND
     control never returns to the engine (we raise), so no action guarded
     by this persist can be emitted — which is what keeps tear injection
     sound for the safety checkers. A drop models a lost fsync: the call
     "succeeds" but the record never hits the platter; unless
     [drop_meta_only] is cleared this only afflicts commit-point and
     snapshot records, whose loss recovery can always repair from the
     entry log and peers. *)
  let gate ~meta k =
    if ctl.tear_rate > 0.0 && Rng.float rng 1.0 < ctl.tear_rate then begin
      ctl.torn <- ctl.torn + 1;
      raise Crashed
    end
    else if
      ctl.drop_rate > 0.0
      && ((not ctl.drop_meta_only) || meta)
      && Rng.float rng 1.0 < ctl.drop_rate
    then ctl.dropped <- ctl.dropped + 1
    else k ()
  in
  let store =
    {
      persist_promise = (fun b -> gate ~meta:false (fun () -> inner.persist_promise b));
      persist_entry =
        (fun ~instance ~ballot p ->
          gate ~meta:false (fun () -> inner.persist_entry ~instance ~ballot p));
      persist_commit = (fun cp -> gate ~meta:true (fun () -> inner.persist_commit cp));
      persist_snapshot = (fun s -> gate ~meta:true (fun () -> inner.persist_snapshot s));
    }
  in
  (store, ctl)

(* Damage a closed log file in place, as a crash or failing disk would.
   Both return [false] when the file is missing or too small to damage. *)

let tear_log ~path ~rng =
  let log_path = path ^ ".log" in
  if not (Sys.file_exists log_path) then false
  else begin
    let ic = open_in_bin log_path in
    let len = in_channel_length ic in
    let all = really_input_string ic len in
    close_in ic;
    if len < 2 then false
    else begin
      (* Chop a random number of trailing bytes — at least one, at most
         the final record plus change. *)
      let cut = 1 + Rng.int rng (min len 64) in
      let oc = open_out_bin log_path in
      output_string oc (String.sub all 0 (len - cut));
      close_out oc;
      true
    end
  end

