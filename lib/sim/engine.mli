(** Deterministic discrete-event simulation engine.

    Time is a [float] in {e milliseconds} (the unit used throughout the
    paper's evaluation). Events scheduled for the same instant fire in
    scheduling order (a strictly increasing sequence number breaks ties),
    so runs are fully deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in milliseconds. *)

type timer
(** Handle for a scheduled callback; cancellation is O(1) (lazy deletion
    from the event heap). *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays
    are clamped to zero. *)

val schedule_at : t -> time:float -> (unit -> unit) -> timer
(** Absolute-time variant; times in the past fire immediately (at [now]). *)

val cancel : t -> timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val cancelled : timer -> bool

val step : t -> bool
(** Fire the next event. [false] if the queue was empty. *)

val run : ?until:float -> t -> unit
(** Fire events until the queue empties or [until] (exclusive: events at
    or after it stay queued and [now] advances to [until]), whichever
    comes first. *)

val pending : t -> int
(** Number of live (non-cancelled) queued events. *)

val fired : t -> int
(** Total events fired since creation. *)
