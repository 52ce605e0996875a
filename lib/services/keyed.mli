(** Map-valued service state on the wire. The key-value store, the lease
    manager, the resource broker and the grid scheduler keep their state
    in maps; this module owns how such a map is written and read, and
    how the delta between two maps is written and applied (§3.3: ship
    the update, not the state).

    A map is written as [Wire.Encoder.list] would write its bindings:
    the count, then each key and value in key order. A delta is two such
    lists, the changed bindings and the removed keys, each in descending
    key order. *)

module type S = sig
  include Map.S

  val write :
    Grid_codec.Wire.Encoder.t -> (Grid_codec.Wire.Encoder.t -> 'a -> unit) -> 'a t -> unit
  (** [write e value m]: the count, then each key and value in key
      order, walked in place. *)

  val read : Grid_codec.Wire.Decoder.t -> (Grid_codec.Wire.Decoder.t -> 'a) -> 'a t
  (** The map {!write} wrote. *)

  val write_changed :
    Grid_codec.Wire.Encoder.t -> (Grid_codec.Wire.Encoder.t -> 'a -> unit) ->
    equal:('a -> 'a -> bool) -> old:'a t -> 'a t -> unit
  (** The bindings of the new map that [old] lacks or binds to a value
      not [equal] to the new one. *)

  val write_removed : Grid_codec.Wire.Encoder.t -> old:'a t -> 'a t -> unit
  (** The keys of [old] that the new map lacks. *)

  val apply_changed :
    Grid_codec.Wire.Decoder.t -> (Grid_codec.Wire.Decoder.t -> 'a) -> 'a t -> 'a t
  (** Add the bindings {!write_changed} wrote. *)

  val apply_removed : Grid_codec.Wire.Decoder.t -> 'a t -> 'a t
  (** Remove the keys {!write_removed} wrote. *)
end

module Strings : S with type key = string
(** Keys written as [Wire.Encoder.string]. *)

module Uints : S with type key = int
(** Keys written as [Wire.Encoder.uint], so non-negative. *)
