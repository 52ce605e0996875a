(** The client protocol (§3.3): each request is sent to {e all} replicas
    — so clients need not know which replica currently leads — and only
    the leader answers. The client retransmits on timeout and matches
    replies by request id, dropping duplicates.

    Like the replica, the client is a pure step machine: [submit] and
    [handle] return actions for the driver, and [handle] additionally
    surfaces a fresh (non-duplicate) reply for the workload layer. *)

type t

val create :
  id:Grid_util.Ids.Client_id.t ->
  replicas:int list ->
  ?retry_ms:float ->
  ?seed:int ->
  ?obs:Grid_obs.Span.Recorder.t ->
  ?actor:string ->
  unit ->
  t
(** [retry_ms] defaults to 500; actual retransmission delays are jittered
    ±25% (seeded by [seed], default derived from [id]) so that retries
    cannot phase-lock with periodic failures. [obs] receives
    [Client_send]/[Reply] lifecycle spans (default: disabled recorder).
    [actor] labels those spans (default ["c<id>"]; the sharded runtime
    prefixes ["s<k>/"]). *)

val id : t -> Grid_util.Ids.Client_id.t
val node : t -> int
(** The node id this client occupies (see {!Types.client_node}). *)

val submit :
  t ->
  ?now:float ->
  ?trace:int * string ->
  Types.rtype ->
  payload:string ->
  [ `Busy | `Sent of Types.action list ]
(** Issue the next request. The client is closed-loop — at most one
    outstanding request — so [`Busy] is returned when one is already
    pending. [`Sent] carries the broadcast and the retransmission timer
    for the driver to interpret. [now] (default 0) timestamps the
    [Client_send] span; pass the driver clock when tracing.

    [trace] is [(tid, parent)] from an upstream span (the shard router):
    the [Client_send] span parents under it and the request carries the
    trace onward. Without it, a deterministic trace id is derived from
    (client id, seq) when recording is enabled. *)

val handle : t -> now:float -> Types.input -> Types.action list * Types.reply option
(** Feed a reply or timer. The returned reply is [Some] exactly when it
    answers the outstanding request with a {e final} status
    (retransmitted duplicates are absorbed). A [Retry] reply triggers an
    immediate rebroadcast; an [Overloaded] reply arms a retransmission
    timer at the leader's [retry_after_ms] hint, doubled per consecutive
    pushback (capped at 8 x [retry_ms], never below the hint) and
    jittered ±25% — backstop retry firings inside the backoff window are
    suppressed, so a shed request generates no traffic until the window
    closes. Pass the driver clock as [now]: the backoff window is
    measured against it. *)

val outstanding : t -> Types.request option
val retry_count : t -> int

val overloaded_count : t -> int
(** [Overloaded] pushbacks received across all requests. *)

val backoff_until : t -> float
(** Earliest time the pending request may be retransmitted
    ([neg_infinity] when not backing off). *)
