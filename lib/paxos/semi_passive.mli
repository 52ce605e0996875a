(** Semi-passive replication (Défago, Schiper & Sergent, SRDS 1998) —
    the §5 related-work baseline whose "practical implementation and
    performance remains uninvestigated" per the paper.

    Like the paper's protocol, each consensus instance decides the tuple
    ⟨request, resulting state⟩, so nondeterministic services replicate
    safely. Unlike it, there is {e no leader election service}: each
    instance runs a Chandra–Toueg-style ◇S consensus with a rotating
    coordinator. Round 0's coordinator is fixed (replica 0), so in
    failure-free runs it acts as a de-facto primary; when it is suspected
    (round timeout), the next round's coordinator takes over — {e lazy
    execution} means only the coordinator that actually proposes executes
    the request.

    Message pattern per instance, failure-free:
    client broadcast → coordinator executes → [Sp_propose] → majority
    [Sp_ack] → reply + [Sp_decide]; the same 2M + E + 2m latency as the
    basic protocol, but fail-over costs one round timeout instead of a
    full election + multi-instance prepare.

    The engine speaks the same {!Types.input}/{!Types.action} vocabulary
    as {!Replica.Make}, so the simulator drives it unchanged. *)

module Make (S : Service_intf.S) : sig
  type t

  val create : cfg:Config.t -> id:int -> ?seed:int -> unit -> t
  (** [cfg.suspicion_ms] is used as the per-round suspicion timeout. *)

  val bootstrap : t -> Types.action list
  val handle : t -> now:float -> Types.input -> Types.action list

  (** {1 Introspection} *)

  val decided_count : t -> int
  val state : t -> S.state
  val committed_updates : t -> (int * Types.request list * string) list
  (** Requires [cfg.record_history]. *)
end
