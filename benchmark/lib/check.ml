(* Output checker for the TCP workloads.

   Every key has exactly one writer (key k belongs to session k mod 2),
   so each key is a single-writer register whose puts are totally
   ordered by the owner's program order, and every put writes a value
   no other put writes. That turns the consistency checks into position
   comparisons along each key's put sequence:

   - a completed run must leave each key at its owner's last
     acknowledged put, or at a later put that timed out (it may or may
     not have committed) — anything older is a lost write;
   - a get must return a put no older than the last one acknowledged
     before the get was issued, and no newer than the last one issued
     before the get returned — anything else is a stale (or invented)
     read.

   Times are one process's wall clock, taken by the callers around each
   call, so "acknowledged before issued" errs on the permissive side. *)

type put = { value : string; issued : float; returned : float; acked : bool }
type get = { key : int; g_issued : float; g_returned : float; got : string option }

type history = {
  initial : string option array;  (** each key's value before its first put *)
  puts : put array array;  (** per key, its owner's puts in issue order *)
  gets : get list;
}

let show = function None -> "<absent>" | Some v -> Printf.sprintf "%S" (String.trim v)

(* Position of [v] in key [k]'s put sequence: -1 for the initial value. *)
let position h k v =
  if v = h.initial.(k) then Some (-1)
  else
    match v with
    | None -> None
    | Some s ->
      let ps = h.puts.(k) in
      let rec find j = if j < 0 then None else if ps.(j).value = s then Some j else find (j - 1) in
      find (Array.length ps - 1)

let last_index ps pred =
  let rec go j = if j < 0 then -1 else if pred ps.(j) then j else go (j - 1) in
  go (Array.length ps - 1)

let value_at h k j = if j < 0 then h.initial.(k) else Some h.puts.(k).(j).value

(* [final h state]: violations of the final-state rule, given each key's
   value as read from the (converged) replicas. *)
let final h state =
  let violations = ref [] in
  Array.iteri
    (fun k ps ->
      let acked = last_index ps (fun p -> p.acked) in
      let v = state k in
      let ok =
        match position h k v with
        | Some j -> j = acked || (j > acked && not ps.(j).acked)
        | None -> false
      in
      if not ok then
        violations :=
          Printf.sprintf
            "key %d: final value %s, but the last acknowledged put wrote %s (lost write)" k
            (show v) (show (value_at h k acked))
          :: !violations)
    h.puts;
  List.rev !violations

(* [reads h]: violations of the read rule. *)
let reads h =
  List.filter_map
    (fun g ->
      let ps = h.puts.(g.key) in
      let lower = last_index ps (fun p -> p.acked && p.returned < g.g_issued) in
      let upper = last_index ps (fun p -> p.issued <= g.g_returned) in
      match position h g.key g.got with
      | Some j when j >= lower && j <= upper -> None
      | Some j when j < lower ->
        Some
          (Printf.sprintf
             "get of key %d returned %s, older than %s acknowledged before it (stale read)"
             g.key (show g.got) (show (value_at h g.key lower)))
      | Some _ ->
        Some
          (Printf.sprintf "get of key %d returned %s before that put was issued" g.key
             (show g.got))
      | None ->
        Some (Printf.sprintf "get of key %d returned %s, which no put wrote" g.key (show g.got)))
    h.gets
