(* Tests for the experiment harness: report formatting and testbed
   construction invariants. *)

module Cluster = Harness.Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Report ---------------- *)

let test_report_alignment () =
  let buffer = Buffer.create 256 in
  let out = Format.formatter_of_buffer buffer in
  Harness.Report.table ~out ~title:"t"
    ~headers:[ "a"; "long-header"; "c" ]
    [ [ "xxxxxxxx"; "1"; "2" ]; [ "y"; "22"; "333" ] ];
  let lines = String.split_on_char '\n' (Buffer.contents buffer) in
  let rows = List.filter (fun l -> String.length l > 0 && l.[0] <> '=') lines in
  (* All printed rows share one width (trailing pad included). *)
  match rows with
  | header :: rule :: data ->
      check_bool "rule matches header width" true
        (String.length rule >= String.length (String.trim header));
      List.iter
        (fun row -> check_bool "row no wider than content demands" true (String.length row < 80))
        data
  | _ -> Alcotest.fail "expected header + rule"

let test_report_formatters () =
  Alcotest.(check string) "mps" "3.81M" (Harness.Report.mps 3_810_000.);
  Alcotest.(check string) "kps" "1550K" (Harness.Report.kps 1_550_000.);
  Alcotest.(check string) "pct" "75.0%" (Harness.Report.pct 0.75);
  Alcotest.(check string) "us" "5.7" (Harness.Report.us 5.7)

(* ---------------- Cluster ---------------- *)

let test_cluster_shapes () =
  let server = Cluster.server_spec ~threads:4 ~nic_ports:4 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:3 ~client_threads:2 ~server () in
  check_int "client stacks" 3 (List.length cluster.Cluster.clients);
  check_int "client ips" 3 (List.length cluster.Cluster.client_ips);
  check_int "bonded server ports" 4 (Array.length cluster.Cluster.server_nics);
  check_int "one rx link per port" 4 (List.length cluster.Cluster.server_rx_links);
  check_bool "ix server exposed" true (Option.is_some cluster.Cluster.server_ix);
  check_int "no drops at rest" 0 (Cluster.server_rx_drops cluster);
  Alcotest.(check (pair int int)) "no marks or drops at rest" (0, 0)
    (Cluster.server_link_stats cluster);
  (* Bonded NIC ports share one MAC (802.3ad). *)
  let macs =
    Array.to_list (Array.map Ixhw.Nic.mac cluster.Cluster.server_nics)
    |> List.sort_uniq compare
  in
  check_int "single bond MAC" 1 (List.length macs)

let test_cluster_kinds () =
  List.iter
    (fun kind ->
      let server = Cluster.server_spec ~threads:2 kind in
      let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
      check_bool "stack name set" true
        (String.length cluster.Cluster.server.Netapi.Net_api.name > 0);
      check_int "capacity surface" 2 (Netapi.Net_api.capacity cluster.Cluster.server);
      check_int "live = capacity when static" 2
        (Netapi.Net_api.live_threads cluster.Cluster.server))
    [ Cluster.Ix; Cluster.Linux; Cluster.Mtcp ]

let test_mtcp_rejects_bonding () =
  let server = Cluster.server_spec ~threads:2 ~nic_ports:4 Cluster.Mtcp in
  Alcotest.check_raises "mTCP cannot bond (§5.1)"
    (Invalid_argument "Mtcp_stack.create: mTCP does not support NIC bonding")
    (fun () -> ignore (Cluster.build ~client_hosts:1 ~client_threads:1 ~server ()))

let test_deterministic_runs () =
  (* Identical seeds must give bit-identical experiment outcomes. *)
  let run () =
    let server = Cluster.server_spec ~threads:2 Cluster.Ix in
    let cluster = Cluster.build ~seed:123 ~client_hosts:1 ~client_threads:1 ~server () in
    Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
    let stats = Apps.Echo.new_stats () in
    Apps.Echo.client
      (List.hd cluster.Cluster.clients)
      ~now:(Cluster.now cluster) ~thread:0 ~server_ip:cluster.Cluster.server_ip
      ~port:7 ~msg_size:64 ~msgs_per_conn:64 ~stats
      ~stop_after:(Engine.Sim_time.ms 5);
    Engine.Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Cluster.sim;
    ( stats.Apps.Echo.messages,
      Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99.,
      Engine.Sim.events_executed cluster.Cluster.sim )
  in
  let a = run () and b = run () in
  check_bool "bit-identical outcome" true (a = b)

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "alignment" `Quick test_report_alignment;
          Alcotest.test_case "formatters" `Quick test_report_formatters;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "shapes" `Quick test_cluster_shapes;
          Alcotest.test_case "all kinds build" `Quick test_cluster_kinds;
          Alcotest.test_case "mtcp bonding rejected" `Quick test_mtcp_rejects_bonding;
          Alcotest.test_case "determinism" `Quick test_deterministic_runs;
        ] );
    ]
