(** Operation footprints: the set of abstract keys an operation touches,
    with an explicit wildcard.

    One conflict relation serves every footprint check in the system:
    T-Paxos first-committer-wins and the batch gate (DESIGN.md §5), the
    2PC prepared locks (§16), the reshard moved/frozen gates (§17), shard
    placement and the cross-shard serializability checker. Services report footprints as
    key lists ({!Service_intf.S.footprint}), where the key ["*"] means
    "every key"; {!of_keys} is the one place that reads it. *)

type t = private
  | All  (** every key: overlaps any nonempty footprint *)
  | Keys of string list  (** sorted ascending, no duplicates *)

val empty : t
(** Touches nothing (a pure read): overlaps nothing, not even {!All}. *)

val all : t
(** Touches everything — the conservative answer for an op whose
    payload cannot be decoded. *)

val of_keys : string list -> t
(** Normalise a service's key list: ["*"] anywhere gives {!All}. *)

val union : t -> t -> t

val keys : t -> string list
(** The inverse of {!of_keys} up to order and duplicates: {!All} is
    [\["*"\]]. This is the wire form (prepared 2PC branches). *)

val overlaps : t -> t -> bool
(** Do two footprints share a key? Empty footprints overlap nothing;
    {!All} overlaps every nonempty footprint. A merge over the sorted
    keys, linear in their total length. *)

val hits_ranges : t -> (string * string option) list -> bool
(** Does the footprint touch any of the key ranges [\[lo, hi)] ([hi =
    None] is the top of the keyspace)? {!All} hits every nonempty range
    list; the empty footprint hits nothing. *)
