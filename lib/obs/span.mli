(** Structured request-lifecycle events.

    Each committed request passes through a fixed sequence of lifecycle
    points; recording them with timestamps lets a run reconstruct the
    paper's latency decomposition (§3.4): [M] WAN hops, [E] execution,
    [m] LAN hops. See {!Lifecycle} for the analysis side.

    Recording is designed to be free when disabled: every [Recorder]
    function is a single branch, and takes only unboxed/required
    arguments so call sites allocate nothing on the disabled path. *)

module Ids := Grid_util.Ids

type phase =
  | Route  (** the shard router resolved the owning group (trace root) *)
  | Client_send  (** client hands the request to the network *)
  | Leader_receive  (** leader engine first sees the request *)
  | Propose  (** leader starts the accept round for an instance *)
  | Accept_quorum  (** leader gathers a majority of accept acks *)
  | Commit  (** leader learns/announces the decision *)
  | State_ship  (** follower receives the committed decision *)
  | Apply  (** service executes the request *)
  | Lease_local
      (** the leader answered a read locally under a majority lease:
          execution alone completed it, no confirm round *)
  | Reply  (** client receives the answer *)

val all_phases : phase list
(** In lifecycle order. *)

val phase_name : phase -> string

type body =
  | Span of {
      req : Ids.Request_id.t;
      phase : phase;
      instance : int;
      detail : string;
      tid : int;
      parent : string;
    }
      (** [instance = -1] when not tied to a consensus instance;
          [detail = ""] unless the site attaches a label (the request
          type at [Leader_receive], the executing replica at [Apply]).
          [tid] is the causal trace id shared by every span of one
          end-to-end request ([0] = untraced); [parent] is the
          {!span_id} of the causally preceding span ([""] = root). *)
  | Msg of { kind : string; dst : int }
  | Note of string

type event = { time : float; actor : string; body : body }

val span_id : actor:string -> phase -> string
(** [actor ^ ":" ^ phase_name phase] — the id another span's [parent]
    field uses to point at this span. *)

val pp_event : Format.formatter -> event -> unit

module Recorder : sig
  type t

  val create : ?capacity:int -> enabled:bool -> unit -> t
  (** Ring-buffer backed; default capacity 65536 events (oldest evicted
      first). An [enabled:false] recorder never stores anything. *)

  val disabled : t
  (** Shared always-off recorder, for defaulting optional parameters. *)

  val enabled : t -> bool

  val span :
    ?tid:int ->
    ?parent:string ->
    t ->
    time:float ->
    actor:string ->
    req:Ids.Request_id.t ->
    instance:int ->
    detail:string ->
    phase ->
    unit
  (** [tid] defaults to [0] (untraced), [parent] to [""] (root). *)

  val msg : t -> time:float -> actor:string -> kind:string -> dst:int -> unit
  val note : t -> time:float -> actor:string -> string -> unit

  val notef :
    t -> time:float -> actor:string -> ('a, Format.formatter, unit) format -> 'a
  (** Formatted note; the format arguments are still evaluated when
      disabled (OCaml applies them), so prefer {!note} with a constant
      string on hot paths. *)

  val events : t -> event list
  (** Oldest first. *)

  val length : t -> int
  val clear : t -> unit
end

(** {1 JSONL serialization}

    One compact JSON object per line; deterministic byte-for-byte for a
    given event list (stable key order and float formatting), which the
    trace-determinism tests depend on. *)

val event_to_json : event -> Json.t
val dump_string : event list -> string
val dump_file : string -> event list -> unit
val load_string : string -> event list
(** Skips blank and malformed lines. *)

val load_file : string -> event list
