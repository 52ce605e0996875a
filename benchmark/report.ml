(* What one workload run produces. A child process writes its outcome
   to a file; the parent reads it back, aggregates repeats and prints. *)

module Json = Grid_obs.Json

type clock = Wall | Virtual

type metric = { name : string; value : float; unit : string; clock : clock }

let metric ?(clock = Wall) name unit value = { name; value; unit; clock }
let clock_name = function Wall -> "wall" | Virtual -> "virtual"

type outcome = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  violations : string list;  (** output-check failures; empty on a correct run *)
  metrics : metric list;
}

let find o name = List.find_opt (fun m -> m.name = name) o.metrics

let metric_json ?(extra = []) m =
  Json.Obj
    ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit);
       ("clock", Json.Str (clock_name m.clock)) ]
    @ extra)

(* The child and the parent are the same executable, so the outcome
   crosses between them marshalled. *)
let write_file path (o : outcome) =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc o [])

let read_file path : outcome option =
  match In_channel.with_open_bin path (fun ic -> Marshal.from_channel ic) with
  | o -> Some o
  | exception (Sys_error _ | End_of_file | Failure _) -> None
