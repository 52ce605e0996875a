(** Cross-shard transaction checker: atomicity and serializability of
    2PC over per-group T-Paxos (DESIGN.md §16), from the groups'
    committed histories alone.

    Feed it one committed history per group — normally the longest
    replica [committed_updates] of each group. Per-replica agreement
    {e within} a group is {!Agreement.check}'s job; this checker reads
    the cross-group protocol: every participant that logged a prepare
    gets exactly one decision, all participants decide the same way, and
    the per-group decision orders of conflicting committed transactions
    embed into one serial order. *)

type violation =
  | Mixed_decision of { tid : int; committed_in : int list; aborted_in : int list }
      (** atomicity broken: the transaction committed in some groups and
          logged an abort decision in others *)
  | Duplicate_decision of { tid : int; group : int; instances : int list }
      (** a group committed more than one decision instance for one tid —
          the decision tombstones failed under duplicate delivery *)
  | Unresolved_prepare of { tid : int; group : int; instance : int }
      (** a committed prepare with no committed decision in that group;
          reported only under [require_resolved] (use after a drain that
          completed or recovered every transaction) *)
  | Cycle of { tids : int list }
      (** serializability broken: committed cross-shard transactions
          whose per-group decision orders form a cycle over conflicting
          footprints *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  ?require_resolved:bool ->
  is_cross_tid:(int -> bool) ->
  footprint_of:(string -> Grid_paxos.Footprint.t) ->
  (int * Grid_paxos.Types.request list * string) list array ->
  violation list
(** [check histories] where [histories.(g)] is group [g]'s committed
    history (instance, batch, encoded state). [is_cross_tid] classifies
    transaction ids ({!Grid_shard.Multi.Make.is_cross_tid});
    [footprint_of] decodes an op payload to its partition/conflict keys
    (e.g. [Footprint.of_keys ∘ Kv_store.footprint ∘ decode_op]).
    Empty result = the cross-shard history is atomic and serializable. *)
