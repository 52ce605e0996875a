(* The partition map: abstract footprint keys -> shard ids.

   Ownership depends only on the key and the map itself — never on the
   replica count inside a group — so reconfiguring a group (3 -> 5
   replicas, different timeouts) cannot silently migrate keys. The hash
   is a hand-rolled 64-bit FNV-1a: stable across OCaml versions and
   architectures, unlike [Hashtbl.hash].

   Since resharding (DESIGN.md §17) the map is *versioned*: every map
   carries a monotone [epoch], and range maps carry an explicit
   interval->owner assignment so a split can hand the new right half to
   an existing group without renumbering anything. [split]/[merge]
   produce the successor map plus the [move] describing which key range
   changes hands; committing that map is the reshard coordinator's job. *)

module Wire = Grid_codec.Wire

type spec =
  | Hash
  | Range of string list

type t = {
  shards : int;  (* group count — fixed; intervals may outnumber groups *)
  spec : spec;
  epoch : int;
  owners : int array;
      (* interval index -> owning group. For [Hash] the identity over
         [0..shards-1]; for [Range cuts] one entry per interval
         (|cuts| + 1). Epoch-0 maps are the identity, so seed behaviour
         is unchanged. *)
}

let check_cuts ~shards:_ cuts =
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  if not (sorted cuts) then
    invalid_arg "Partition.create: range cut points must be strictly increasing"

let create ?(spec = Hash) ~shards () =
  if shards < 1 then invalid_arg "Partition.create: need at least one shard";
  (match spec with
  | Hash -> ()
  | Range cuts ->
    if List.length cuts <> shards - 1 then
      invalid_arg "Partition.create: a k-shard range map needs k-1 cut points";
    check_cuts ~shards cuts);
  { shards; spec; epoch = 0; owners = Array.init shards (fun i -> i) }

let shards t = t.shards
let epoch t = t.epoch

(* An ABORT decision consumes its epoch at the source group (the
   tombstone refuses every later instance of that epoch) even though
   the map never changed, so a retried transition must skip past it. *)
let restamp t ~epoch =
  if epoch <= t.epoch then
    invalid_arg "Partition.restamp: epoch must exceed the current one";
  { t with epoch }

let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let interval_of_key cuts key =
  let rec find i = function
    | [] -> i
    | cut :: rest -> if String.compare key cut < 0 then i else find (i + 1) rest
  in
  find 0 cuts

let owner_of_key t key =
  match t.spec with
  | Hash -> Int64.to_int (Int64.unsigned_rem (fnv1a64 key) (Int64.of_int t.shards))
  | Range cuts -> t.owners.(interval_of_key cuts key)

(* The (lo, hi) span of interval [i]; [None] bounds are open ends. *)
let interval_span cuts i =
  let arr = Array.of_list cuts in
  let lo = if i = 0 then None else Some arr.(i - 1) in
  let hi = if i = Array.length arr then None else Some arr.(i) in
  (lo, hi)

let intervals t =
  match t.spec with
  | Hash -> []
  | Range cuts ->
    List.init (List.length cuts + 1) (fun i ->
        let lo, hi = interval_span cuts i in
        (lo, hi, t.owners.(i)))

(* ------------------------------------------------------------------ *)
(* Reshard transitions. Both are realizations of one primitive: a key
   range changes owner and the epoch advances. *)

type move = { mv_lo : string; mv_hi : string option; source : int; target : int }

type reshard_error =
  [ `Hash_map  (** hash maps have no contiguous ranges to move *)
  | `Bad_cut of string
  | `Bad_target of string ]

let pp_reshard_error ppf : reshard_error -> unit = function
  | `Hash_map -> Format.pp_print_string ppf "hash partition maps cannot be reshaped"
  | `Bad_cut m -> Format.fprintf ppf "bad cut point: %s" m
  | `Bad_target m -> Format.fprintf ppf "bad target group: %s" m

let split t ~cut ~target : (t * move, reshard_error) result =
  match t.spec with
  | Hash -> Error `Hash_map
  | Range cuts ->
    if target < 0 || target >= t.shards then
      Error (`Bad_target (Printf.sprintf "group %d of %d" target t.shards))
    else if List.mem cut cuts then
      Error (`Bad_cut (Printf.sprintf "%S is already a cut point" cut))
    else begin
      let i = interval_of_key cuts cut in
      let source = t.owners.(i) in
      if source = target then
        Error (`Bad_target (Printf.sprintf "group %d already owns the range" target))
      else begin
        let _, hi = interval_span cuts i in
        (* Splice the cut in and give the right half to [target]. *)
        let cuts' =
          List.concat
            [ List.filteri (fun j _ -> j < i) cuts; [ cut ];
              List.filteri (fun j _ -> j >= i) cuts ]
        in
        let owners' =
          Array.init
            (Array.length t.owners + 1)
            (fun j ->
              if j <= i then t.owners.(j)
              else if j = i + 1 then target
              else t.owners.(j - 1))
        in
        Ok
          ( { t with spec = Range cuts'; owners = owners'; epoch = t.epoch + 1 },
            { mv_lo = cut; mv_hi = hi; source; target } )
      end
    end

let merge t ~cut : (t * move option, reshard_error) result =
  match t.spec with
  | Hash -> Error `Hash_map
  | Range cuts -> (
    match List.find_index (String.equal cut) cuts with
    | None -> Error (`Bad_cut (Printf.sprintf "%S is not a cut point" cut))
    | Some i ->
      (* Intervals [i] (left) and [i+1] (right) merge; the left owner
         absorbs the right interval's range. *)
      let source = t.owners.(i + 1) and target = t.owners.(i) in
      let _, hi = interval_span cuts (i + 1) in
      let cuts' = List.filteri (fun j _ -> j <> i) cuts in
      let owners' =
        Array.init
          (Array.length t.owners - 1)
          (fun j -> if j <= i then t.owners.(j) else t.owners.(j + 1))
      in
      let mv =
        if source = target then None
        else Some { mv_lo = cut; mv_hi = hi; source; target }
      in
      Ok ({ t with spec = Range cuts'; owners = owners'; epoch = t.epoch + 1 }, mv))

(* ------------------------------------------------------------------ *)
(* Map codec: replicas commit the encoded successor map as the payload
   of the reshard COMMIT instance, and [Wrong_epoch] redirects carry it
   back to stale clients. *)

let encode t =
  Wire.encode (fun e ->
      Wire.Encoder.uint e t.shards;
      (match t.spec with
      | Hash -> Wire.Encoder.uint e 0
      | Range cuts ->
        Wire.Encoder.uint e 1;
        Wire.Encoder.list e (Wire.Encoder.string e) cuts);
      Wire.Encoder.uint e t.epoch;
      Wire.Encoder.list e (Wire.Encoder.uint e) (Array.to_list t.owners))

let decode s =
  Wire.decode s (fun d ->
      let shards = Wire.Decoder.uint d in
      let spec =
        match Wire.Decoder.uint d with
        | 0 -> Hash
        | 1 -> Range (Wire.Decoder.list d Wire.Decoder.string)
        | n ->
          raise (Wire.Decode_error { pos = 0; msg = Printf.sprintf "bad spec %d" n })
      in
      let epoch = Wire.Decoder.uint d in
      let owners = Array.of_list (Wire.Decoder.list d Wire.Decoder.uint) in
      if shards < 1 then
        raise (Wire.Decode_error { pos = 0; msg = "partition: no shards" });
      let expected =
        match spec with Hash -> shards | Range cuts -> List.length cuts + 1
      in
      if Array.length owners <> expected then
        raise (Wire.Decode_error { pos = 0; msg = "partition: owners mismatch" });
      if Array.exists (fun o -> o < 0 || o >= shards) owners then
        raise (Wire.Decode_error { pos = 0; msg = "partition: owner out of range" });
      (match spec with Hash -> () | Range cuts -> check_cuts ~shards cuts);
      { shards; spec; epoch; owners })

type placement = Single of int | Any

type error =
  [ `All_shards  (** a ["*"] footprint: the op touches every shard *)
  | `Cross_shard of (string * int) list
    (** keys owned by more than one shard, with each key's owner *) ]

let pp_error ppf (e : error) =
  match e with
  | `All_shards -> Format.fprintf ppf "op touches all shards (footprint \"*\")"
  | `Cross_shard keys ->
    Format.fprintf ppf "op spans shards:";
    List.iter (fun (k, s) -> Format.fprintf ppf " %s->s%d" k s) keys

let place t keys : (placement, error) result =
  match Grid_paxos.Footprint.of_keys keys with
  | All -> Error `All_shards
  | Keys _ -> (
    match keys with
    | [] -> Ok Any
    | first :: rest ->
      let owner0 = owner_of_key t first in
      if List.for_all (fun k -> owner_of_key t k = owner0) rest then
        Ok (Single owner0)
      else Error (`Cross_shard (List.map (fun k -> (k, owner_of_key t k)) keys)))
