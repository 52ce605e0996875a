open Types
module Ids = Grid_util.Ids
module Wire = Grid_codec.Wire

type prepared = {
  p_ops : (request * string option) list;
  p_replies : reply list;
  p_footprint : Footprint.t;
}

let encode_prepared (p : prepared) =
  Wire.encode (fun e ->
      let module E = Wire.Encoder in
      E.list e
        (fun (r, w) ->
          encode_request e r;
          E.option e (E.string e) w)
        p.p_ops;
      E.list e (fun r -> encode_reply e r) p.p_replies;
      E.list e (fun k -> E.string e k) (Footprint.keys p.p_footprint))

let decode_prepared s =
  Wire.decode s (fun d ->
      let module D = Wire.Decoder in
      let p_ops =
        D.list d (fun d ->
            let r = decode_request d in
            let w = D.option d D.string in
            (r, w))
      in
      let p_replies = D.list d decode_reply in
      let p_footprint = Footprint.of_keys (D.list d D.string) in
      { p_ops; p_replies; p_footprint })

type dedup = (int, reply) Hashtbl.t

type t = {
  dedup : dedup;
  prepared : (int, prepared) Hashtbl.t;
  txn_outcomes : (int, bool) Hashtbl.t;
  mutable reshard_epoch : int;
  mutable reshard_map : string;
  mutable frozen : (int * string * string option * int) option;
  mutable installed : (int * string * string option * int) option;
  mutable moved : (string * string option) list;
  reshard_aborted : (int, unit) Hashtbl.t;
  mutable imported_items : int;
}

(* The creation sizes fix each table's bucket layout, hence the order in
   which [snapshot] folds it into encoded (wire and storage) bytes. *)
let create () =
  {
    dedup = Hashtbl.create 32;
    prepared = Hashtbl.create 8;
    txn_outcomes = Hashtbl.create 32;
    reshard_epoch = 0;
    reshard_map = "";
    frozen = None;
    installed = None;
    moved = [];
    reshard_aborted = Hashtbl.create 8;
    imported_items = 0;
  }

let dedup_update dedup (r : reply) =
  let c = Ids.Client_id.to_int r.req.client in
  match Hashtbl.find_opt dedup c with
  | Some prev when prev.req.seq >= r.req.seq -> ()
  | _ -> Hashtbl.replace dedup c r

let dedup_lookup dedup (req : request) =
  match Hashtbl.find_opt dedup (Ids.Client_id.to_int req.id.client) with
  | Some prev when prev.req.seq = req.id.seq -> `Resend prev
  | Some prev when prev.req.seq > req.id.seq -> `Stale
  | _ -> `Fresh

(* Keep a tombstone table bounded. Cross-txn tids and reshard epochs are
   both allocated monotonically, so pruning far-below-max is safe: a key
   that old can only be hit by a very stale duplicate, whose prepare or
   freeze can no longer be live (it was tombstoned, hence decided). *)
let prune_tombstones tbl =
  if Hashtbl.length tbl > 8192 then begin
    let mx = Hashtbl.fold (fun k _ m -> max k m) tbl 0 in
    Hashtbl.filter_map_inplace (fun k v -> if k < mx - 4096 then None else Some v) tbl
  end

(* 2PC participant tracking: a committed [Txn_prepare] locks the branch
   in; the committed decision releases it and leaves a tombstone so
   duplicate decisions — and racing commit-vs-abort from a coordinator
   and its recovery — resolve identically on every replica. *)
let track_2pc t (r : request) =
  match r.rtype with
  | Txn_prepare tid ->
    if not (Hashtbl.mem t.txn_outcomes tid) then
      Hashtbl.replace t.prepared tid (decode_prepared r.payload)
  | Txn_commit tid when Hashtbl.mem t.prepared tid ->
    Hashtbl.remove t.prepared tid;
    Hashtbl.replace t.txn_outcomes tid true
  | Txn_abort tid when Hashtbl.mem t.prepared tid ->
    Hashtbl.remove t.prepared tid;
    Hashtbl.replace t.txn_outcomes tid false
  | _ -> ()

(* Reshard participant tracking. The committed FREEZE locks the moving
   range; the committed COMMIT activates the successor map, converting
   the source's frozen range into a moved one and dissolving the
   target's pending install; a committed ABORT tombstones the epoch so a
   racing late COMMIT for it loses identically everywhere. *)
let track_reshard t (r : request) =
  match r.rtype with
  | Reshard_freeze e -> (
    if e > t.reshard_epoch && (not (Hashtbl.mem t.reshard_aborted e)) && t.frozen = None
    then
      match Reshard_wire.decode_freeze r.payload with
      | { f_lo; f_hi; f_target } -> t.frozen <- Some (e, f_lo, f_hi, f_target)
      | exception _ -> ())
  | Reshard_install e -> (
    if e > t.reshard_epoch && not (Hashtbl.mem t.reshard_aborted e) then
      match Reshard_wire.decode_install r.payload with
      | { i_lo; i_hi; i_count; _ } -> t.installed <- Some (e, i_lo, i_hi, i_count)
      | exception _ -> ())
  | Reshard_commit e when e > t.reshard_epoch ->
    (match t.frozen with
    | Some (e', lo, hi, _) when e' = e ->
      (* Source side: the handed-away range only becomes unroutable
         here, at the commit point — not at freeze time, so an aborted
         migration simply thaws. *)
      t.moved <- (lo, hi) :: t.moved;
      t.frozen <- None
    | _ -> ());
    (match t.installed with
    | Some (e', lo, hi, count) when e' = e ->
      (* Target side: only now may the imported range be served. If an
         earlier split had moved any part of this range out, the commit
         restores ownership — by interval subtraction, since the two
         transitions need not share cut points (a merge can bring back a
         wider range than the split that left). *)
      t.moved <- Reshard_wire.range_subtract t.moved ~lo ~hi;
      t.imported_items <- t.imported_items + count;
      t.installed <- None
    | _ -> ());
    t.reshard_epoch <- e;
    t.reshard_map <- r.payload
  | Reshard_abort e ->
    Hashtbl.replace t.reshard_aborted e ();
    (match t.frozen with Some (e', _, _, _) when e' = e -> t.frozen <- None | _ -> ());
    (match t.installed with Some (e', _, _, _) when e' = e -> t.installed <- None | _ -> ())
  | _ -> ()

let track t (p : proposal) =
  List.iter (dedup_update t.dedup) p.replies;
  List.iter (track_2pc t) p.requests;
  prune_tombstones t.txn_outcomes;
  List.iter (track_reshard t) p.requests;
  prune_tombstones t.reshard_aborted

let snapshot t ~commit_point ~state =
  {
    Snapshot.commit_point;
    state;
    dedup = Hashtbl.fold (fun c r acc -> (c, r) :: acc) t.dedup [];
    prepared =
      Hashtbl.fold (fun tid p acc -> (tid, encode_prepared p) :: acc) t.prepared [];
    outcomes = Hashtbl.fold (fun tid o acc -> (tid, o) :: acc) t.txn_outcomes [];
    reshard =
      Reshard_wire.encode_participant
        {
          p_epoch = t.reshard_epoch;
          p_map = t.reshard_map;
          p_frozen = t.frozen;
          p_installed = t.installed;
          p_moved = t.moved;
          p_aborted = Hashtbl.fold (fun e () acc -> e :: acc) t.reshard_aborted [];
          p_imported = t.imported_items;
        };
  }

let restore t (snap : Snapshot.t) =
  List.iter (fun (_, r) -> dedup_update t.dedup r) snap.dedup;
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.txn_outcomes;
  List.iter (fun (tid, b) -> Hashtbl.replace t.prepared tid (decode_prepared b))
    snap.prepared;
  List.iter (fun (tid, o) -> Hashtbl.replace t.txn_outcomes tid o) snap.outcomes;
  match snap.reshard with
  | "" -> ()  (* pre-reshard image: keep the derived view we have *)
  | s -> (
    match Reshard_wire.decode_participant s with
    | p ->
      t.reshard_epoch <- p.p_epoch;
      t.reshard_map <- p.p_map;
      t.frozen <- p.p_frozen;
      t.installed <- p.p_installed;
      t.moved <- p.p_moved;
      Hashtbl.reset t.reshard_aborted;
      List.iter (fun e -> Hashtbl.replace t.reshard_aborted e ()) p.p_aborted;
      t.imported_items <- p.p_imported
    | exception _ -> ())

let adopt (type s) (module S : Service_intf.S with type state = s) (st : s) (p : proposal) =
  match (p.update, p.requests) with
  | Full s, _ -> S.decode_state s
  | Delta d, _ -> S.patch st d
  | Witness w, [ r ] -> fst (S.replay st (S.decode_op r.payload) ~witness:w)
  | Witness _, _ -> invalid_arg "Committed.adopt: witness update with non-singleton batch"
