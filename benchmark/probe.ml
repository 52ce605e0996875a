(* Process-level readings and the service/storage layer metrics derived
   from the timing wrappers in {!Timed}. *)

let now () = Unix.gettimeofday ()

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Thread.delay d

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                Float.of_int kb /. 1024.0)
          else scan ()
      in
      scan ())

let per x n = if n = 0 then 0.0 else Float.of_int x /. Float.of_int n
let metric = Report.metric

let mean_us (r : Timed.reading) =
  if r.n = 0 then 0.0 else Float.of_int r.total_ns /. Float.of_int r.n /. 1000.0

let service_metrics deltas ~ops ~wall_s =
  let busy = List.fold_left (fun acc (_, (r : Timed.reading)) -> acc + r.total_ns) 0 deltas in
  List.concat_map
    (fun (hook, (r : Timed.reading)) ->
      [ metric ("service." ^ hook ^ "_us") "us" (mean_us r);
        metric ("service." ^ hook ^ ".n_per_op") "count" (per r.n ops) ]
      @
      match hook with
      | "diff" | "encode_state" ->
        [ metric ("service." ^ hook ^ "_bytes") "B" (per r.total_bytes r.n) ]
      | _ -> [])
    deltas
  @ [ metric "service.busy_share" "ratio" (Float.of_int busy /. 1e9 /. wall_s) ]

let storage_metrics deltas ~ops =
  let get name = List.assoc name deltas in
  let records = List.fold_left (fun acc (_, (r : Timed.reading)) -> acc + r.n) 0 deltas in
  let snap = get "snapshot" in
  [ metric "storage.entry_us" "us" (mean_us (get "entry"));
    metric "storage.commit_us" "us" (mean_us (get "commit"));
    metric "storage.promise_n" "count" (Float.of_int (get "promise").n);
    metric "storage.snapshot_us" "us" (mean_us snap);
    metric "storage.snapshot_bytes" "B" (per snap.total_bytes snap.n);
    metric "storage.records_per_op" "count" (per (records - snap.n) ops) ]
