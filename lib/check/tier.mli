(** The stress tiers behind [bin/stress.exe], one type for all six:

    - [Counter], [Kv] and [Both] (counter and kv, seeds dealt
      round-robin): the single-group nemesis batch of {!Stress.run_one},
      checking agreement, durability, linearizability and stale reads;
    - [Overload]: {!Stress.run_overload_one}, admission control under a
      crash-doubled nemesis;
    - [Xshard] and [Reshard]: the sharded tiers of {!Xstress}, 2PC and
      live resharding over 3 groups.

    A tier's {!plug} carries everything the batch loop and the one-seed
    check need: its seeded runs ({!lane}s), its summary and failure
    printers, and the rule that a batch actually exercised what the tier
    exists to stress. *)

type group = Stress.summary
type sharded = Xstress.summary

type _ t =
  | Counter : group t
  | Kv : group t
  | Both : group t
  | Overload : group t
  | Xshard : sharded t
  | Reshard : sharded t

type any = Any : _ t -> any

val names : (string * any) list
(** Each tier under its CLI name: ["counter"], ["kv"], ["both"],
    ["overload"], ["xshard"], ["reshard"]. *)

(** One workload of a tier, run one seed at a time. *)
type 's lane = {
  name : string;
  step : seed:int -> 's -> 's;  (** run one schedule and fold it in *)
  check :
    ?trace:(Grid_obs.Span.event list -> unit) -> seed:int -> Format.formatter -> bool;
      (** Run one schedule and print its report; [true] iff it passed.
          [trace] receives the replicas' lifecycle spans (deterministic
          per seed). A single-group lane also replays the recorded fault
          plan and fails unless the replay is exact
          ({!Stress.replay_differences}). *)
}

type 's plug = {
  lanes : 's lane list;
  empty : 's;
  schedules : 's -> int;
  failing_seeds : 's -> int list;  (** in the order they ran *)
  unexercised : 's -> string option;
      (** Why a batch proves nothing, however green, if it never reached
          what the tier exists to stress: for [Overload] no [Overloaded]
          pushback; for [Xshard] no cross-shard commit; for [Reshard] no
          live split, acked write or committed cross-shard transaction. *)
  pp_batch : Format.formatter -> 's -> unit;
      (** the summary, then one [FAIL] entry per failing schedule *)
}

val plug :
  ?steps:int ->
  ?nemesis:Mcheck.nemesis ->
  ?cfg_tweak:(Grid_paxos.Config.t -> Grid_paxos.Config.t) ->
  's t ->
  's plug
(** [steps] reaches the single-group tiers; [nemesis] and [cfg_tweak]
    reach [Counter], [Kv] and [Both] only (see {!Stress.run_one}). *)

val batch :
  ?progress:(int -> int -> unit) -> schedules:int -> base_seed:int -> 's plug -> 's
(** [schedules] seeds from [base_seed] on, dealt round-robin over the
    lanes (lane [i] of [n] runs [base_seed + i], [base_seed + i + n], …)
    and run lane by lane. After each schedule, [progress] gets the number
    of schedules run and of failing ones so far. A failing single-group
    schedule is shrunk. *)
