type timer = { time : float; seq : int; f : unit -> unit; mutable cancelled : bool }

module Event_order = struct
  type t = timer

  let compare a b =
    match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c
end

module Heap = Grid_util.Heap.Make (Event_order)

type t = {
  mutable now : float;
  mutable seq : int;
  mutable live : int;
  mutable fired : int;
  queue : Heap.t;
}

let create () = { now = 0.0; seq = 0; live = 0; fired = 0; queue = Heap.create () }

let now t = t.now

let schedule_at t ~time f =
  let time = if time < t.now then t.now else time in
  let ev = { time; seq = t.seq; f; cancelled = false } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  Heap.add t.queue ev;
  ev

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.now +. delay) f

(* [live] is decremented immediately so [pending] stays accurate; the dead
   event is skipped when it reaches the top of the heap. *)
let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

let cancelled ev = ev.cancelled

(* Pop events, skipping lazily-deleted (cancelled) ones. *)
let rec pop_live t =
  match Heap.pop_min t.queue with
  | None -> None
  | Some ev when ev.cancelled -> pop_live t
  | Some ev -> Some ev

let step t =
  match pop_live t with
  | None -> false
  | Some ev ->
    t.now <- ev.time;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    ev.f ();
    true

let run ?until t =
  let continue = ref true in
  while !continue do
    match pop_live t with
    | None -> continue := false
    | Some ev -> (
      match until with
      | Some horizon when ev.time >= horizon ->
        (* Put it back: the caller may resume later. *)
        Heap.add t.queue ev;
        t.now <- horizon;
        continue := false
      | _ ->
        t.now <- ev.time;
        t.live <- t.live - 1;
        t.fired <- t.fired + 1;
        ev.f ())
  done;
  match until with
  | Some horizon when t.now < horizon -> t.now <- horizon
  | _ -> ()

let pending t =
  (* [live] counts cancelled-but-unpopped events out. *)
  t.live

let fired t = t.fired
