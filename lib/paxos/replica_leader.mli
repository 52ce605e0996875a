(** The leader role of {!Replica}, over the shared state record of
    {!Replica_state}. These are its entry points from the election path
    and the message handlers; the batch executor, the accept pipeline
    and admission control stay inside. *)

module Make (S : Service_intf.S) : sig
  open Replica_state.Make (S)

  val become_leader : t -> candidacy -> Types.action list
  (** Install the candidacy's snapshot, queue the recovered entries for
      re-proposal and start the pipeline. *)

  val do_commit : t -> leadership -> inflight -> Types.action list
  (** The in-flight instance reached its accept quorum. *)

  val check_read_ready : t -> leadership -> pending_read -> Types.action list
  (** Answer the read if it executed and holds a lease or a confirm quorum. *)

  val finish_execution : t -> leadership -> exec_work -> Types.action list
  (** Run work whose execution cost has elapsed. *)

  val leader_handle_client : t -> leadership -> Types.request -> Types.action list
end
