type t = All | Keys of string list

let wildcard = "*"
let empty = Keys []
let all = All

let of_keys = function
  | [] -> empty
  | [ k ] -> if k = wildcard then All else Keys [ k ]
  | ks -> if List.mem wildcard ks then All else Keys (List.sort_uniq String.compare ks)

(* Merge of two sorted, duplicate-free lists. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    let c = String.compare x y in
    if c = 0 then x :: merge a' b'
    else if c < 0 then x :: merge a' b
    else y :: merge a b'

let union a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Keys [], f | f, Keys [] -> f
  | Keys a, Keys b -> Keys (merge a b)

let keys = function All -> [ wildcard ] | Keys ks -> ks

let rec meet a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
    let c = String.compare x y in
    c = 0 || if c < 0 then meet a' b else meet a b'

let overlaps a b =
  match (a, b) with
  | Keys [], _ | _, Keys [] -> false
  | All, _ | _, All -> true
  | Keys a, Keys b -> meet a b

let in_range k (lo, hi) =
  String.compare k lo >= 0
  && match hi with None -> true | Some h -> String.compare k h < 0

let hits_ranges fp ranges =
  ranges <> []
  &&
  match fp with
  | All -> true
  | Keys ks -> List.exists (fun k -> List.exists (in_range k) ranges) ks
