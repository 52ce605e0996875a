(* Layer instrumentation applied from outside the program: a timing
   functor over the service signature and a timing wrapper over the
   storage record. Three replica loop threads call the hooks at once,
   so the counters are atomics; until [enable] is called every hook
   costs one branch, which is how the untraced runs use them. *)

type hook = { calls : int Atomic.t; ns : int Atomic.t; bytes : int Atomic.t }
type reading = { n : int; total_ns : int; total_bytes : int }

let on = Atomic.make false
let enable () = Atomic.set on true
let hook () = { calls = Atomic.make 0; ns = Atomic.make 0; bytes = Atomic.make 0 }

let timed h ~size f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  Atomic.incr h.calls;
  ignore (Atomic.fetch_and_add h.ns dt);
  ignore (Atomic.fetch_and_add h.bytes (size r));
  r

let nothing _ = 0
let read h =
  { n = Atomic.get h.calls; total_ns = Atomic.get h.ns; total_bytes = Atomic.get h.bytes }

let delta a b =
  { n = b.n - a.n; total_ns = b.total_ns - a.total_ns; total_bytes = b.total_bytes - a.total_bytes }

(* Service hooks, by the name the per-layer metrics use. *)
let apply_h = hook ()
let diff_h = hook ()
let patch_h = hook ()
let encode_state_h = hook ()
let decode_state_h = hook ()

let service_hooks =
  [ ("apply", apply_h); ("diff", diff_h); ("patch", patch_h);
    ("encode_state", encode_state_h); ("decode_state", decode_state_h) ]

module Service (S : Grid_paxos.Service_intf.S) :
  Grid_paxos.Service_intf.S
    with type state = S.state
     and type op = S.op
     and type result = S.result = struct
  include S

  let apply ~rng ~now st op =
    if Atomic.get on then timed apply_h ~size:nothing (fun () -> S.apply ~rng ~now st op)
    else S.apply ~rng ~now st op

  let diff ~old_state st =
    if Atomic.get on then
      timed diff_h
        ~size:(function Some d -> String.length d | None -> 0)
        (fun () -> S.diff ~old_state st)
    else S.diff ~old_state st

  let patch st d =
    if Atomic.get on then timed patch_h ~size:nothing (fun () -> S.patch st d) else S.patch st d

  let encode_state st =
    if Atomic.get on then timed encode_state_h ~size:String.length (fun () -> S.encode_state st)
    else S.encode_state st

  let decode_state s =
    if Atomic.get on then timed decode_state_h ~size:nothing (fun () -> S.decode_state s)
    else S.decode_state s
end

(* Storage hooks. The wrapper is only installed on traced runs. *)
let promise_h = hook ()
let entry_h = hook ()
let commit_h = hook ()
let snapshot_h = hook ()

let storage_hooks =
  [ ("promise", promise_h); ("entry", entry_h); ("commit", commit_h); ("snapshot", snapshot_h) ]

let storage (s : Grid_paxos.Storage.t) : Grid_paxos.Storage.t =
  {
    persist_promise = (fun b -> timed promise_h ~size:nothing (fun () -> s.persist_promise b));
    persist_entry =
      (fun ~instance ~ballot p ->
        timed entry_h ~size:nothing (fun () -> s.persist_entry ~instance ~ballot p));
    persist_commit = (fun c -> timed commit_h ~size:nothing (fun () -> s.persist_commit c));
    persist_snapshot =
      (fun snap ->
        timed snapshot_h ~size:(fun () -> String.length snap) (fun () -> s.persist_snapshot snap));
  }

let read_all hooks = List.map (fun (name, h) -> (name, read h)) hooks

let delta_all before after =
  List.map2 (fun (name, a) (_, b) -> (name, delta a b)) before after

(* The service every workload replicates. *)
module Kv = Service (Grid_services.Kv_store)
