(* The stress tiers behind bin/stress.exe. Each tier is a plug: its
   lanes (seeded runs), its summary and failure printer and its
   "exercised" rule. One batch loop serves all six. *)

module Span = Grid_obs.Span

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

let names =
  [
    ("counter", Any Counter);
    ("kv", Any Kv);
    ("both", Any Both);
    ("overload", Any Overload);
    ("xshard", Any Xshard);
    ("reshard", Any Reshard);
  ]

type 's lane = {
  name : string;
  step : seed:int -> 's -> 's;
  check : ?trace:(Span.event list -> unit) -> seed:int -> Format.formatter -> bool;
}

type 's plug = {
  lanes : 's lane list;
  empty : 's;
  schedules : 's -> int;
  failing_seeds : 's -> int list;
  unexercised : 's -> string option;
  pp_batch : Format.formatter -> 's -> unit;
}

(* A single-group lane over [run], a {!Stress.run_one} with the tier's
   knobs applied. Its seed check replays the recorded fault plan and
   insists the replay reproduces the outcome exactly. *)
let group_lane name run =
  let step ~seed s =
    let o, failure = run ~obs:None ~shrink:true ~plan:None ~seed in
    Stress.add_outcome s o failure
  in
  let check ?trace ~seed ppf =
    let traced = Option.map (fun f -> (f, Span.Recorder.create ~enabled:true ())) trace in
    let o, failure = run ~obs:(Option.map snd traced) ~shrink:true ~plan:None ~seed in
    Option.iter (fun (f, obs) -> f (Span.Recorder.events obs)) traced;
    Format.fprintf ppf "seed %d (%s): %d delivered, %d replies, commit points [%s]@."
      seed name o.delivered (List.length o.replies)
      (String.concat ";" (Array.to_list (Array.map string_of_int o.committed)));
    Format.fprintf ppf "  plan (%d events): %a@." (List.length o.plan) Mcheck.pp_plan
      o.plan;
    let r, _ = run ~obs:None ~shrink:false ~plan:(Some o.plan) ~seed in
    let diverged = Stress.replay_differences o r in
    if diverged = [] then
      Format.fprintf ppf "  replay from plan: deterministic (identical outcome)@."
    else
      Format.fprintf ppf "  replay from plan DIVERGED (%s)@." (String.concat ", " diverged);
    (match failure with
    | None -> Format.fprintf ppf "  all invariants hold@."
    | Some f -> Format.fprintf ppf "FAIL %a@." Stress.pp_failure f);
    diverged = [] && Option.is_none failure
  in
  { name; step; check }

let group lanes ~unexercised =
  {
    lanes;
    empty = Stress.empty_summary;
    schedules = (fun (s : Stress.summary) -> s.schedules);
    failing_seeds = (fun s -> List.map (fun (f : Stress.failure) -> f.seed) s.failures);
    unexercised;
    pp_batch =
      (fun ppf s ->
        Format.fprintf ppf "%a@." Stress.pp_summary s;
        List.iter (Format.fprintf ppf "FAIL %a@." Stress.pp_failure) s.failures);
  }

let pp_sharded prefix ppf (o : Xstress.outcome) =
  Format.fprintf ppf "%s%a@." prefix Xstress.pp_outcome o;
  List.iter (Format.fprintf ppf "  %s@.") o.violations

let sharded name tier ~unexercised =
  let check ?trace ~seed ppf =
    let o = Xstress.run_one ?trace ~seed tier in
    pp_sharded "" ppf o;
    o.violations = []
  in
  let step ~seed s = Xstress.add_outcome s (Xstress.run_one ~seed tier) in
  {
    lanes = [ { name; step; check } ];
    empty = Xstress.empty_summary tier;
    schedules = (fun (s : Xstress.summary) -> s.schedules);
    failing_seeds = (fun s -> List.map (fun (o : Xstress.outcome) -> o.seed) s.failures);
    unexercised = (fun s -> unexercised s.totals);
    pp_batch =
      (fun ppf s ->
        Format.fprintf ppf "%a@." Xstress.pp_summary s;
        List.iter (pp_sharded "FAIL " ppf) s.failures);
  }

let exercised_if ok what = if ok then None else Some what

let plug (type s) ?steps ?nemesis ?cfg_tweak (tier : s t) : s plug =
  let service service =
    group_lane (Stress.service_name service) (fun ~obs ~shrink ~plan ~seed ->
        Stress.run_one ~service ?obs ?steps ?nemesis ?cfg_tweak ~shrink ?plan ~seed ())
  in
  let always _ = None in
  match tier with
  | Counter -> group [ service Counter_service ] ~unexercised:always
  | Kv -> group [ service Kv_service ] ~unexercised:always
  | Both -> group [ service Counter_service; service Kv_service ] ~unexercised:always
  | Overload ->
    group
      [
        group_lane "overload" (fun ~obs ~shrink ~plan ~seed ->
            Stress.run_overload_one ?obs ?steps ~shrink ?plan ~seed ());
      ]
      ~unexercised:(fun s ->
        exercised_if (s.shed > 0) "no Overloaded pushback exercised")
  | Xshard ->
    sharded "xshard" Xshard ~unexercised:(fun n ->
        exercised_if (n.committed > 0) "no cross-shard commit exercised")
  | Reshard ->
    sharded "reshard" Reshard ~unexercised:(fun n ->
        exercised_if
          (n.splits > 0 && n.acked > 0 && n.committed > 0)
          "no live split, acked write, or committed cross txn exercised")

let batch ?(progress = fun _ _ -> ()) ~schedules ~base_seed p =
  let n = List.length p.lanes in
  let acc = ref p.empty in
  List.iteri
    (fun i lane ->
      let share = (schedules / n) + if i < schedules mod n then 1 else 0 in
      for k = 0 to share - 1 do
        acc := lane.step ~seed:(base_seed + (k * n) + i) !acc;
        progress (p.schedules !acc) (List.length (p.failing_seeds !acc))
      done)
    p.lanes;
  !acc
