type entry = {
  ballot : Types.Ballot.t;
  proposal : Types.proposal;
  committed : bool;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  mutable commit_point : int;
  mutable max_accepted : int;
}

let create () = { entries = Hashtbl.create 64; commit_point = 0; max_accepted = 0 }
let commit_point t = t.commit_point
let max_accepted t = t.max_accepted
let get t i = Hashtbl.find_opt t.entries i

let accept t ~instance ~ballot proposal =
  if instance < 1 then invalid_arg "Plog.accept: instances start at 1";
  let store () =
    Hashtbl.replace t.entries instance { ballot; proposal; committed = false };
    if instance > t.max_accepted then t.max_accepted <- instance;
    true
  in
  match Hashtbl.find_opt t.entries instance with
  (* A missing instance at or below the commit point was truncated. *)
  | None -> instance > t.commit_point && store ()
  | Some e when e.committed -> false
  | Some e when Types.Ballot.compare ballot e.ballot >= 0 -> store ()
  | Some _ -> false

let commit t ~instance =
  (* Advance the contiguous committed prefix. *)
  let advance () =
    let rec next i =
      match Hashtbl.find_opt t.entries (i + 1) with
      | Some e when e.committed -> next (i + 1)
      | _ -> i
    in
    t.commit_point <- next t.commit_point;
    true
  in
  match Hashtbl.find_opt t.entries instance with
  | None when instance > t.commit_point -> false
  | Some e when not e.committed ->
    Hashtbl.replace t.entries instance { e with committed = true };
    advance ()
  | _ -> advance ()

let install_commit_point t cp =
  if cp > t.commit_point then begin
    Hashtbl.filter_map_inplace
      (fun i e -> if i <= cp then None else Some e)
      t.entries;
    t.commit_point <- cp;
    if t.max_accepted < cp then t.max_accepted <- cp
  end

let accepted_above t floor =
  Hashtbl.fold
    (fun i (e : entry) acc ->
      if i > floor then
        ({ Types.instance = i; ballot = e.ballot; proposal = e.proposal } :: acc)
      else acc)
    t.entries []
  |> List.sort (fun (a : Types.recovery_entry) b -> Int.compare a.instance b.instance)

let prune_below t floor =
  if floor > t.commit_point then invalid_arg "Plog.prune_below: floor above commit point";
  Hashtbl.filter_map_inplace (fun i e -> if i <= floor then None else Some e) t.entries

let entry_count t = Hashtbl.length t.entries
