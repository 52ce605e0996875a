(** Stable storage for replicas.

    The protocol requires three things to survive a crash: the promised
    ballot, accepted log entries, and the commit point (plus a state
    snapshot, which the engine restores before the entries above it).
    The engine returns these as the [persist] list of each
    {!Types.step}, and each driver applies them to its store with
    {!apply}, in order, before it runs the step's actions. Two backends
    are provided:

    - {!memory}: keeps the persisted image in memory (crash-recovery
      tests and the model checker, which simulate losing volatile state
      only);
    - {!file}: an append-only log of CRC frames plus a snapshot file.

    The log's frames are the wire's: one frame codec,
    {!Grid_codec.Frame}, writes and reads both. Recovery reads the log
    once, in chunks through that codec's incremental reader, and folds
    each record into the image as it is parsed, so its memory is the
    image's, not the log's. The log still only grows: snapshots do not
    shrink it.

    A driver with no store ignores the records. A process crash keeps a
    prefix of what was written: {!file} flushes one frame per record and
    installs a snapshot by renaming a complete temp file, so recovery
    after a crash at any point gives the image of the records that
    completed. A torn or corrupt tail is cut off by truncating the log
    in place; the valid prefix is never rewritten. The model checker's
    torn persists ([Mcheck.persist_step]) inject exactly that fault. *)

type persisted = {
  promised : Types.Ballot.t;
  entries : Types.recovery_entry list;  (** accepted entries, any order *)
  commit_point : int;
  snapshot : string option;  (** encoded {!Snapshot.t} *)
}

type t = {
  persist_promise : Types.Ballot.t -> unit;
  persist_entry : instance:int -> ballot:Types.Ballot.t -> Types.proposal -> unit;
  persist_commit : int -> unit;
  persist_snapshot : string -> unit;
}

val apply : t -> Types.persist -> unit
(** Write one record through the matching hook. *)

val memory : unit -> t * (unit -> persisted)
(** The second component reads back the current persisted image. *)

type recovery_report = {
  frames_ok : int;  (** CRC-valid frames replayed *)
  records_dropped : int;  (** CRC-valid frames whose body failed to decode *)
  bytes_salvaged : int;  (** length of the valid log prefix *)
  bytes_dropped : int;  (** corrupt suffix abandoned (0 on a clean log) *)
  torn_tail : bool;  (** the log ended in a truncated / CRC-failed record *)
  interior_corruption : bool;
      (** a corrupt record had valid-looking data behind it (bit flip or
          partial overwrite); the suffix cannot be trusted and is dropped *)
  snapshot_used : bool;
  snapshot_corrupt : bool;  (** snapshot file present but failed its CRC *)
  log_truncated : bool;  (** the log was cut back to its valid prefix *)
}

val pp_report : Format.formatter -> recovery_report -> unit

val file : path:string -> t * persisted option * recovery_report
(** Open (or create) a file-backed store; returns the recovered image if
    the files already existed and were non-empty, plus a report of what
    recovery had to repair. Corruption never raises: the valid log prefix
    is salvaged (and the file truncated to it in place so future appends
    stay readable; a bad frame whose claimed end reaches the end of the
    file is a torn tail, one with bytes behind it interior corruption), a corrupt snapshot falls back to log replay, and any
    instances lost with the corrupt suffix are resynced from peers at
    runtime — {!Replica.load} tolerates the resulting holes and the
    replica catches up through the existing multi-instance prepare /
    snapshot catch-up path. *)
