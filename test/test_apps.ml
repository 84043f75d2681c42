(* Tests for the application layer (KV protocol, memcached, echo,
   NetPIPE) and the workload generators (Zipf, profiles, keygen). *)

module Kv = Apps.Kv_protocol
module Cluster = Harness.Cluster
module Net_api = Netapi.Net_api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- KV protocol ---------------- *)

let test_kv_request_roundtrip () =
  let req = { Kv.op = Kv.Set; reqid = 42; key = "user:1001"; value = "payload" } in
  let parser = Kv.Parser.create () in
  Kv.Parser.feed parser (Kv.encode_request req);
  (match Kv.Parser.next_request parser with
  | Some decoded -> check_bool "roundtrip" true (decoded = req)
  | None -> Alcotest.fail "expected a request");
  Alcotest.(check (option unit)) "buffer drained" None
    (Option.map ignore (Kv.Parser.next_request parser))

let test_kv_response_roundtrip () =
  let resp = { Kv.status = Kv.hit; reqid = 7; value = String.make 500 'v' } in
  let parser = Kv.Parser.create () in
  Kv.Parser.feed parser (Kv.encode_response resp);
  match Kv.Parser.next_response parser with
  | Some decoded -> check_bool "roundtrip" true (decoded = resp)
  | None -> Alcotest.fail "expected a response"

let test_kv_incremental_parse () =
  let req = { Kv.op = Kv.Get; reqid = 9; key = "split-key"; value = "" } in
  let wire = Kv.encode_request req in
  let parser = Kv.Parser.create () in
  (* Feed one byte at a time: the parser must not emit early. *)
  String.iteri
    (fun i c ->
      if i < String.length wire - 1 then begin
        Kv.Parser.feed parser (String.make 1 c);
        check_bool "no early emit" true (Kv.Parser.next_request parser = None)
      end)
    wire;
  Kv.Parser.feed parser (String.make 1 wire.[String.length wire - 1]);
  check_bool "emits when complete" true (Kv.Parser.next_request parser = Some req)

let test_kv_pipelined_messages () =
  let reqs =
    List.init 5 (fun i ->
        { Kv.op = (if i mod 2 = 0 then Kv.Get else Kv.Set);
          reqid = i; key = Printf.sprintf "k%d" i; value = String.make i 'x' })
  in
  let parser = Kv.Parser.create () in
  Kv.Parser.feed parser (String.concat "" (List.map Kv.encode_request reqs));
  let decoded =
    List.init 5 (fun _ -> Option.get (Kv.Parser.next_request parser))
  in
  check_bool "all five in order" true (decoded = reqs)

let prop_kv_roundtrip =
  QCheck.Test.make ~name:"kv request roundtrip (arbitrary keys/values)" ~count:200
    QCheck.(
      triple (int_bound 0x7FFFFFF)
        (string_of_size Gen.(int_range 1 70))
        (string_of_size Gen.(int_range 0 1024)))
    (fun (reqid, key, value) ->
      let req = { Kv.op = Kv.Set; reqid; key; value } in
      let parser = Kv.Parser.create () in
      Kv.Parser.feed parser (Kv.encode_request req);
      Kv.Parser.next_request parser = Some req)

(* ---------------- Zipf ---------------- *)

let test_zipf_bounds () =
  let z = Workloads.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Engine.Rng.create ~seed:5 in
  for _ = 1 to 5000 do
    let k = Workloads.Zipf.sample z rng in
    check_bool "rank in range" true (k >= 1 && k <= 1000)
  done

let test_zipf_skew () =
  let z = Workloads.Zipf.create ~n:10_000 ~theta:0.99 in
  let rng = Engine.Rng.create ~seed:6 in
  let top100 = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Workloads.Zipf.sample z rng <= 100 then incr top100
  done;
  (* With theta=0.99 over 10k keys, the top 1% of keys draws roughly
     half the traffic. *)
  let share = float_of_int !top100 /. float_of_int n in
  check_bool "hot keys dominate" true (share > 0.35 && share < 0.75)

(* ---------------- Profiles & keygen ---------------- *)

let test_profiles () =
  let rng = Engine.Rng.create ~seed:1 in
  for _ = 1 to 200 do
    let etc_key = Workloads.Size_dist.etc.Workloads.Size_dist.key_len rng in
    check_bool "ETC key 20-70B" true (etc_key >= 20 && etc_key <= 70);
    let etc_val = Workloads.Size_dist.etc.Workloads.Size_dist.value_len rng in
    check_bool "ETC value 1B-1KB" true (etc_val >= 1 && etc_val <= 1024);
    let usr_key = Workloads.Size_dist.usr.Workloads.Size_dist.key_len rng in
    check_bool "USR key <20B" true (usr_key < 20);
    check_int "USR value 2B" 2 (Workloads.Size_dist.usr.Workloads.Size_dist.value_len rng)
  done;
  Alcotest.(check (float 0.001)) "ETC 75% GET" 0.75
    Workloads.Size_dist.etc.Workloads.Size_dist.get_fraction

let test_keygen_deterministic_and_preload_hits () =
  let profile = Workloads.Size_dist.usr in
  check_bool "same rank, same key" true
    (Workloads.Keygen.key ~profile ~rank:123 = Workloads.Keygen.key ~profile ~rank:123);
  check_bool "distinct ranks differ" true
    (Workloads.Keygen.key ~profile ~rank:1 <> Workloads.Keygen.key ~profile ~rank:2);
  (* Preloading a table makes every generated key a hit. *)
  let table = Hashtbl.create 64 in
  let small = { profile with Workloads.Size_dist.key_space = 500 } in
  Workloads.Keygen.preload ~insert:(Hashtbl.replace table) ~profile:small ~seed:2;
  check_int "all keys present" 500 (Hashtbl.length table);
  for rank = 1 to 500 do
    check_bool "hit" true (Hashtbl.mem table (Workloads.Keygen.key ~profile:small ~rank))
  done

(* ---------------- memcached over the cluster ---------------- *)

let memcached_fixture ~kind =
  let server = Cluster.server_spec ~threads:2 kind in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:2 ~server () in
  let mc =
    Apps.Memcached.server cluster.Cluster.server ~now:(Cluster.now cluster)
      ~port:11211 ()
  in
  (cluster, mc)

let test_memcached_get_set_over_wire () =
  let cluster, mc = memcached_fixture ~kind:Cluster.Ix in
  let client = List.hd cluster.Cluster.clients in
  let responses = ref [] in
  let parser = Kv.Parser.create () in
  let handlers =
    {
      Net_api.on_connected =
        (fun conn ~ok ->
          if ok then begin
            ignore
              (conn.Net_api.send
                 (Kv.encode_request { Kv.op = Kv.Set; reqid = 1; key = "alpha"; value = "beta" }));
            ignore
              (conn.Net_api.send
                 (Kv.encode_request { Kv.op = Kv.Get; reqid = 2; key = "alpha"; value = "" }));
            ignore
              (conn.Net_api.send
                 (Kv.encode_request { Kv.op = Kv.Get; reqid = 3; key = "missing"; value = "" }))
          end);
      on_data =
        (fun _ data ->
          Kv.Parser.feed parser data;
          let rec pump () =
            match Kv.Parser.next_response parser with
            | Some r ->
                responses := r :: !responses;
                pump ()
            | None -> ()
          in
          pump ());
      on_sent = (fun _ _ -> ());
      on_closed = (fun _ _ -> ());
    }
  in
  client.Net_api.connect ~thread:0 ~ip:cluster.Cluster.server_ip ~port:11211 handlers;
  Engine.Sim.run ~until:(Engine.Sim_time.ms 50) cluster.Cluster.sim;
  let by_id id = List.find (fun r -> r.Kv.reqid = id) !responses in
  check_int "three responses" 3 (List.length !responses);
  check_int "set stored" Kv.stored (by_id 1).Kv.status;
  check_int "get hit" Kv.hit (by_id 2).Kv.status;
  Alcotest.(check string) "value returned" "beta" (by_id 2).Kv.value;
  check_int "get miss" Kv.miss (by_id 3).Kv.status;
  check_int "server counted ops" 2 (Apps.Memcached.gets mc);
  check_int "one set" 1 (Apps.Memcached.sets mc);
  check_int "one hit" 1 (Apps.Memcached.hits mc)

let test_mutilate_places_load () =
  let cluster, mc = memcached_fixture ~kind:Cluster.Ix in
  Workloads.Keygen.preload ~insert:(Apps.Memcached.insert mc)
    ~profile:{ Workloads.Size_dist.usr with Workloads.Size_dist.key_space = 1000 }
    ~seed:4;
  let result =
    Workloads.Mutilate.run ~sim:cluster.Cluster.sim ~clients:cluster.Cluster.clients
      ~server_ip:cluster.Cluster.server_ip ~port:11211
      ~profile:{ Workloads.Size_dist.usr with Workloads.Size_dist.key_space = 1000 }
      ~connections:32 ~target_rps:50_000. ~warmup_ms:4 ~duration_ms:10 ~seed:8 ()
  in
  check_bool "achieved close to target" true
    (result.Workloads.Mutilate.achieved_rps > 40_000.
    && result.Workloads.Mutilate.achieved_rps < 60_000.);
  check_bool "latency sane" true
    (result.Workloads.Mutilate.p99_us > 5. && result.Workloads.Mutilate.p99_us < 500.);
  check_bool "requests completed" true (result.Workloads.Mutilate.completed > 400)

(* ---------------- NetPIPE ---------------- *)

let test_netpipe_measures () =
  let p = Harness.Experiments.netpipe_once ~kind:Cluster.Ix ~size:1024 () in
  check_bool "one-way latency positive and small" true
    (p.Harness.Experiments.one_way_us > 1. && p.Harness.Experiments.one_way_us < 100.);
  check_bool "goodput positive" true (p.Harness.Experiments.gbps > 0.1)

let test_netpipe_larger_is_faster () =
  let small = Harness.Experiments.netpipe_once ~kind:Cluster.Ix ~size:256 () in
  let large = Harness.Experiments.netpipe_once ~kind:Cluster.Ix ~size:65_536 () in
  check_bool "goodput grows with message size" true
    (large.Harness.Experiments.gbps > small.Harness.Experiments.gbps)

(* ---------------- Echo trends ---------------- *)

let test_echo_latency_histogram () =
  let server = Cluster.server_spec ~threads:1 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
  let stats = Apps.Echo.new_stats () in
  Apps.Echo.client (List.hd cluster.Cluster.clients) ~now:(Cluster.now cluster)
    ~thread:0 ~server_ip:cluster.Cluster.server_ip ~port:7 ~msg_size:64
    ~msgs_per_conn:200 ~stats ~stop_after:(Engine.Sim_time.ms 20);
  Engine.Sim.run ~until:(Engine.Sim_time.ms 40) cluster.Cluster.sim;
  check_int "all RTTs recorded" stats.Apps.Echo.messages
    (Ixtelemetry.Log_hist.count stats.Apps.Echo.latency);
  let p50 = Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 50. in
  check_bool "RTT in the ~10us regime" true (p50 > 3_000 && p50 < 60_000)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "apps"
    [
      ( "kv_protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_kv_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_kv_response_roundtrip;
          Alcotest.test_case "incremental parse" `Quick test_kv_incremental_parse;
          Alcotest.test_case "pipelined messages" `Quick test_kv_pipelined_messages;
          qt prop_kv_roundtrip;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "ETC/USR distributions" `Quick test_profiles;
          Alcotest.test_case "keygen & preload" `Quick test_keygen_deterministic_and_preload_hits;
        ] );
      ( "memcached",
        [
          Alcotest.test_case "get/set over the wire" `Quick test_memcached_get_set_over_wire;
          Alcotest.test_case "mutilate load" `Quick test_mutilate_places_load;
        ] );
      ( "netpipe",
        [
          Alcotest.test_case "measures" `Quick test_netpipe_measures;
          Alcotest.test_case "goodput grows with size" `Quick test_netpipe_larger_is_faster;
        ] );
      ("echo", [ Alcotest.test_case "latency histogram" `Quick test_echo_latency_histogram ]);
    ]
