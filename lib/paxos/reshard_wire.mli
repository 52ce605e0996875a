(** Payload envelopes for the elastic-resharding control plane
    (DESIGN.md §17): the byte formats shared by the shard-layer
    coordinator and the replica-level participant state machine. The
    COMMIT payload is the encoded successor partition map and needs no
    envelope (opaque at this layer). *)

type freeze = { f_lo : string; f_hi : string option; f_target : int }

val encode_freeze : lo:string -> hi:string option -> target:int -> string
val decode_freeze : string -> freeze

type install = {
  i_lo : string;
  i_hi : string option;
  i_count : int;  (** item count from [export_range], for admin counters *)
  i_blob : string;  (** opaque service slice for [import_range] *)
}

val encode_install : lo:string -> hi:string option -> count:int -> blob:string -> string
val decode_install : string -> install

(** Reshard participant state carried inside {!Snapshot}. *)
type participant = {
  p_epoch : int;
  p_map : string;
  p_frozen : (int * string * string option * int) option;
  p_installed : (int * string * string option * int) option;
  p_moved : (string * string option) list;
  p_aborted : int list;
  p_imported : int;
}

val empty_participant : participant
val encode_participant : participant -> string
val decode_participant : string -> participant

val range_subtract :
  (string * string option) list ->
  lo:string ->
  hi:string option ->
  (string * string option) list
(** Remove [\[lo, hi)] from every range: a committed install restores
    ownership of whatever part of a previously handed-away range it
    covers, cut points need not match. *)
