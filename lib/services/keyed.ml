module Wire = Grid_codec.Wire

module type S = sig
  include Map.S

  val write : Wire.Encoder.t -> (Wire.Encoder.t -> 'a -> unit) -> 'a t -> unit
  val read : Wire.Decoder.t -> (Wire.Decoder.t -> 'a) -> 'a t

  val write_changed :
    Wire.Encoder.t -> (Wire.Encoder.t -> 'a -> unit) -> equal:('a -> 'a -> bool) ->
    old:'a t -> 'a t -> unit

  val write_removed : Wire.Encoder.t -> old:'a t -> 'a t -> unit
  val apply_changed : Wire.Decoder.t -> (Wire.Decoder.t -> 'a) -> 'a t -> 'a t
  val apply_removed : Wire.Decoder.t -> 'a t -> 'a t
end

module Make (K : sig
  include Map.OrderedType

  val write : Wire.Encoder.t -> t -> unit
  val read : Wire.Decoder.t -> t
end) : S with type key = K.t = struct
  include Map.Make (K)

  let write_binding e value k v =
    K.write e k;
    value e v

  let write e value m =
    Wire.Encoder.uint e (cardinal m);
    iter (write_binding e value) m

  let read_binding value d =
    let k = K.read d in
    let v = value d in
    (k, v)

  let apply_changed d value m =
    List.fold_left (fun m (k, v) -> add k v m) m (Wire.Decoder.list d (read_binding value))

  let read d value = apply_changed d value empty

  (* Both folds cons in ascending key order, so the lists come out
     descending. *)
  let write_changed e value ~equal ~old m =
    let changed =
      fold
        (fun k v acc ->
          match find_opt k old with
          | Some old_v when equal old_v v -> acc
          | _ -> (k, v) :: acc)
        m []
    in
    Wire.Encoder.list e (fun (k, v) -> write_binding e value k v) changed

  let write_removed e ~old m =
    let removed = fold (fun k _ acc -> if mem k m then acc else k :: acc) old [] in
    Wire.Encoder.list e (K.write e) removed

  let apply_removed d m = List.fold_left (fun m k -> remove k m) m (Wire.Decoder.list d K.read)
end

module Strings = Make (struct
  include String

  let write = Wire.Encoder.string
  let read = Wire.Decoder.string
end)

module Uints = Make (struct
  include Int

  let write = Wire.Encoder.uint
  let read = Wire.Decoder.uint
end)
