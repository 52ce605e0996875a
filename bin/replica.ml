(* Run one TCP replica of a replicated service.

     dune exec bin/replica.exe -- --id 0 \
       --cluster 127.0.0.1:4000,127.0.0.1:4001,127.0.0.1:4002 \
       --service counter [--storage /tmp/r0]

   Start one process per cluster entry (ids in address order); then drive
   them with bin/client.exe. *)

open Cmdliner

let run id cluster service storage wire_version verbose =
  if id < 0 || id >= List.length cluster then (
    Printf.eprintf "--id must index into --cluster (0..%d)\n" (List.length cluster - 1);
    exit 1);
  let port =
    match List.assoc id cluster with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let peers = List.filter (fun (i, _) -> i <> id) cluster in
  let cfg =
    Grid_paxos.Config.make ~n:(List.length cluster) ~hb_period_ms:50.0
      ~suspicion_ms:300.0 ~stability_ms:100.0 ~accept_retry_ms:100.0 ()
  in
  let storage =
    match storage with
    | None -> None
    | Some path ->
      let store, recovered, report = Grid_paxos.Storage.file ~path in
      (match recovered with
      | Some _ ->
        Printf.printf "recovered persisted state from %s (%s)\n%!" path
          (Format.asprintf "%a" Grid_paxos.Storage.pp_report report)
      | None -> ());
      Some (store, recovered)
  in
  (if wire_version < Grid_paxos.Wire_codec.min_version
      || wire_version > Grid_paxos.Wire_codec.latest_version
   then begin
     Printf.eprintf "--wire-version must be %d..%d\n"
       Grid_paxos.Wire_codec.min_version Grid_paxos.Wire_codec.latest_version;
     exit 1
   end);
  let start (module S : Grid_paxos.Service_intf.S) =
    let module Tcp = Grid_net.Tcp_node.Make (S) in
    let handle =
      Tcp.start_replica ~cfg ~id ~port ~peers ?storage:(Option.map fst storage)
        ?recovered:(Option.bind storage snd) ~max_wire_version:wire_version ()
    in
    Printf.printf "replica %d (%s service, wire <= v%d) listening on port %d\n%!"
      id S.name wire_version port;
    Printf.printf "  admin: http://127.0.0.1:%d/{health,metrics,flightrec}\n%!" port;
    (* Report role changes until interrupted. *)
    let last = ref false in
    while true do
      Thread.delay 1.0;
      let leading = Tcp.replica_is_leader handle in
      if leading <> !last || verbose then
        Printf.printf "replica %d: %s, commit point %d\n%!" id
          (if leading then "LEADER" else "follower")
          (Tcp.replica_commit_point handle);
      last := leading
    done
  in
  match service with
  | Service_select.Counter -> start (module Grid_services.Counter)
  | Service_select.Kv -> start (module Grid_services.Kv_store)
  | Service_select.Noop -> start (module Grid_services.Noop)

let id_arg =
  Arg.(required & opt (some int) None & info [ "id" ] ~docv:"N" ~doc:"Replica id.")

let cluster_arg =
  Arg.(
    required
    & opt (some Service_select.cluster_conv) None
    & info [ "cluster" ] ~docv:"ADDRS"
        ~doc:"Comma-separated host:port list; ids follow list order.")

let service_arg =
  Arg.(
    value
    & opt Service_select.service_conv Service_select.Counter
    & info [ "service" ] ~docv:"SERVICE" ~doc:"Service to replicate (counter|kv|noop).")

let storage_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "storage" ] ~docv:"PATH" ~doc:"File-backed stable storage path prefix.")

let wire_version_arg =
  Arg.(
    value
    & opt int Grid_paxos.Wire_codec.latest_version
    & info [ "wire-version" ] ~docv:"V"
        ~doc:
          "Highest wire-protocol version to advertise (default latest). Pin \
           to an older version to emulate a not-yet-upgraded build during a \
           rolling upgrade; each connection negotiates the minimum of the \
           two endpoints.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Report status every second.")

let cmd =
  let doc = "Run one TCP replica of a replicated nondeterministic service" in
  Cmd.v
    (Cmd.info "grid-replica" ~doc)
    Term.(
      const run $ id_arg $ cluster_arg $ service_arg $ storage_arg
      $ wire_version_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
