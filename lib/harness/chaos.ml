module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Metrics = Ixtelemetry.Metrics
module Net_api = Netapi.Net_api
module Nic = Ixhw.Nic
module Mempool = Ixmem.Mempool
module Ix_host = Ix_core.Ix_host
module Dataplane = Ix_core.Dataplane
module Control_plane = Ix_core.Control_plane
module Arp_cache = Ix_core.Arp_cache
module Fault_plan = Ix_faults.Fault_plan

type leg = {
  leg_name : string;
  messages : int;
  aborted : int;
  app_crashes : int;
  wire_losses : int;
  migrated : int;
  audit_failures : string list;
  snapshot : string;
}

(* ------------------------------------------------------------------ *)
(* Arming, draining, auditing                                          *)

let ix_hosts (cluster : Cluster.t) =
  let server =
    match cluster.Cluster.server_ix with
    | Some h -> [ ("server", h) ]
    | None -> []
  in
  server
  @ List.concat
      (List.mapi
         (fun i -> function
           | Some h -> [ (Printf.sprintf "client%d" i, h) ]
           | None -> [])
         cluster.Cluster.client_ix)

(* Everything a NIC did with offered frames: accepted into a ring,
   dropped for want of descriptors, or rejected by the MAC filter.
   While wire taps are armed, every frame any link delivers passes a
   tap first, so the delta of this sum equals [faults.tap_forwarded]. *)
let offered_all (cluster : Cluster.t) =
  let sum acc nic =
    acc + Nic.rx_frames nic + Nic.rx_drops nic + Nic.rx_filtered nic
  in
  List.fold_left sum
    (Array.fold_left sum 0 cluster.Cluster.server_nics)
    cluster.Cluster.client_nics

(* Arm the plan everywhere at once: every switch-to-host link (both
   directions of every conversation), every NIC queue, every elastic
   thread's TX pool.  Armed mid-run from a [Sim.at] callback so the
   warmup stays fault-free (ARP resolves, the working set builds). *)
let arm fi (cluster : Cluster.t) =
  List.iter (Fault_plan.arm_link fi) cluster.Cluster.server_rx_links;
  List.iter (Fault_plan.arm_link fi) cluster.Cluster.client_rx_links;
  Array.iter (Fault_plan.arm_nic fi) cluster.Cluster.server_nics;
  List.iter (Fault_plan.arm_nic fi) cluster.Cluster.client_nics;
  List.iter
    (fun (_, host) ->
      Ix_host.iter_threads host (fun dp ->
          Fault_plan.arm_pool fi (Dataplane.pool dp)))
    (ix_hosts cluster)

(* Force-reset every surviving connection on every host.  The fault
   plan may have wedged handshakes, orphaned half-closed peers or
   killed sessions mid-flight; the audit wants the steady state, and
   this is how a dataplane would drain before decommissioning. *)
let drain cluster =
  List.fold_left
    (fun acc (_, host) ->
      let n = ref acc in
      Ix_host.iter_threads host (fun dp ->
          n := !n + Dataplane.abort_all_connections dp);
      !n)
    0 (ix_hosts cluster)

let audit ~fm ~wire_armed ~offered_base (cluster : Cluster.t) =
  let fails = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let fc name = Metrics.counter_value fm ("faults." ^ name) in
  (* Tap conservation: every tapped frame is forwarded, destroyed on
     the wire, or swallowed by a down link; duplication and hostile
     forgery add frames. *)
  let hostile_injected =
    fc "hostile_rsts" + fc "hostile_syns" + fc "hostile_olddups"
    + fc "hostile_acks"
  in
  let tap_in = fc "tap_frames" + fc "wire_dups" + hostile_injected in
  let tap_out = fc "tap_forwarded" + fc "wire_drops" + fc "flap_drops" in
  if tap_in <> tap_out then
    failf "tap conservation: %d tapped+duped+forged <> %d forwarded+dropped"
      tap_in tap_out;
  (* NIC-side conservation while taps were armed: forwarded frames are
     exactly the frames the NICs were offered since arming. *)
  if wire_armed then begin
    let delta = offered_all cluster - offered_base in
    if delta <> fc "tap_forwarded" then
      failf "NIC offered delta %d <> tap_forwarded %d" delta
        (fc "tap_forwarded")
  end;
  List.iter
    (fun (tag, host) ->
      let reg = Ix_host.metrics host in
      let cv fmt = Printf.ksprintf (Metrics.counter_value reg) fmt in
      let threads = Ix_host.thread_count host in
      let sum per =
        let s = ref 0 in
        for i = 0 to threads - 1 do
          s := !s + per i
        done;
        !s
      in
      (* Every received packet lands in exactly one bucket. *)
      for i = 0 to threads - 1 do
        let rx = cv "dataplane.%d.rx_pkts" i in
        let buckets =
          cv "tcp.%d.rx_segs" i
          + cv "dataplane.%d.rx_csum_drops" i
          + cv "dataplane.%d.rx_other" i
        in
        if rx <> buckets then
          failf "%s dp%d: rx_pkts %d <> segs+csum_drops+other %d" tag i rx
            buckets
      done;
      (* At quiescence the rings are drained: what the NICs accepted is
         what the elastic threads polled. *)
      let host_rx = sum (fun i -> cv "dataplane.%d.rx_pkts" i) in
      let nic_rx =
        Array.fold_left
          (fun acc nic -> acc + Nic.rx_frames nic)
          0 (Ix_host.nics host)
      in
      if host_rx <> nic_rx then
        failf "%s: dataplane rx_pkts %d <> nic rx_frames %d" tag host_rx nic_rx;
      (* Every connection ever opened left with a recorded reason. *)
      let opened = sum (fun i -> cv "tcp.%d.connects" i + cv "tcp.%d.accepts" i) in
      let closed =
        sum (fun i ->
            cv "tcp.%d.closed_normal" i
            + cv "tcp.%d.closed_reset" i
            + cv "tcp.%d.closed_timeout" i
            + cv "tcp.%d.closed_refused" i)
      in
      if opened <> closed then
        failf "%s: %d connections opened <> %d close reasons recorded" tag
          opened closed;
      (* Every reset-close has an attributed cause: a peer RST this
         host deliberately accepted, or its own abort.  A blind forged
         RST that tore a connection down without being counted would
         break this balance. *)
      let closed_reset = sum (fun i -> cv "tcp.%d.closed_reset" i) in
      let reset_causes =
        sum (fun i ->
            cv "tcp.%d.rsts_accepted" i + cv "tcp.%d.local_aborts" i)
      in
      if closed_reset <> reset_causes then
        failf "%s: closed_reset %d <> rsts_accepted+local_aborts %d" tag
          closed_reset reset_causes;
      (* Port reservation lifecycle: no ephemeral port is ever freed
         twice (the Port_alloc guard counts any such attempt). *)
      Ix_host.iter_threads host (fun dp ->
          let ep = Dataplane.endpoint dp in
          let dblfree = Ixtcp.Tcp_endpoint.port_double_frees ep in
          if dblfree <> 0 then
            failf "%s dp%d: %d ephemeral-port double frees" tag
              (Dataplane.thread_id dp) dblfree);
      if Ix_host.connections host <> 0 then
        failf "%s: %d flows still in the flow tables" tag
          (Ix_host.connections host);
      (* No mbuf leaks: TX pools and RX ring pools all return to 0. *)
      Ix_host.iter_threads host (fun dp ->
          let live = Mempool.live_count (Dataplane.pool dp) in
          if live <> 0 then
            failf "%s dp%d: %d tx mbufs leaked" tag (Dataplane.thread_id dp)
              live);
      Array.iter
        (fun nic ->
          Nic.iter_queues nic (fun q ->
              let pool = Nic.pool_of q in
              let live = Mempool.live_count pool in
              if live <> 0 then
                failf "%s %s: %d rx mbufs leaked" tag (Mempool.name pool) live))
        (Ix_host.nics host);
      let parked = Arp_cache.parked_count (Ix_host.arp host) in
      if parked <> 0 then
        failf "%s: %d mbufs parked on unresolved ARP entries" tag parked)
    (ix_hosts cluster);
  (* Every injected crash was contained and counted — and nothing else
     faulted. *)
  let faults_on host =
    let s = ref 0 in
    Ix_host.iter_threads host (fun dp -> s := !s + Dataplane.app_faults dp);
    !s
  in
  let server_faults =
    match cluster.Cluster.server_ix with
    | Some h -> faults_on h
    | None -> 0
  in
  if fc "app_crashes" <> server_faults then
    failf "injected app crashes %d <> contained faults %d" (fc "app_crashes")
      server_faults;
  List.iteri
    (fun i -> function
      | Some h ->
          let n = faults_on h in
          if n <> 0 then failf "client%d: %d unexpected app faults" i n
      | None -> ())
    cluster.Cluster.client_ix;
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* Canonical end-state snapshot                                        *)

let add_snapshot buf ~tag (snap : Metrics.snapshot) =
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> Printf.bprintf buf "%s.%s=%d\n" tag name n
      | Metrics.Gauge g -> Printf.bprintf buf "%s.%s=%.17g\n" tag name g
      | Metrics.Histogram h ->
          Printf.bprintf buf "%s.%s=n%d:mean%.17g:p50:%d:p90:%d:p99:%d:max:%d\n"
            tag name h.Metrics.count h.Metrics.mean h.Metrics.p50 h.Metrics.p90
            h.Metrics.p99 h.Metrics.max)
    snap

let cluster_snapshot buf ~fm (cluster : Cluster.t) =
  add_snapshot buf ~tag:"faults" (Metrics.snapshot fm);
  add_snapshot buf ~tag:"server" (cluster.Cluster.server.Net_api.metrics ());
  List.iteri
    (fun i m ->
      add_snapshot buf ~tag:(Printf.sprintf "client%d" i) (Metrics.snapshot m))
    cluster.Cluster.client_metrics

(* ------------------------------------------------------------------ *)
(* The echo leg                                                        *)

(* The echo server of [Apps.Echo], with the fault plan's crash draw at
   the top of the data handler — the injected application bug.  Libix
   catches the raise, aborts only the offending connection and counts
   the fault; the dataplane keeps serving everyone else. *)
let chaos_echo_server stack fi ~port ~msg_size ~app_ns =
  stack.Net_api.listen ~port (fun ~thread _conn ->
      let buffered = Buffer.create msg_size in
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun conn data ->
            if Fault_plan.app_crash fi then
              failwith "chaos: injected handler fault";
            Buffer.add_string buffered data;
            while Buffer.length buffered >= msg_size do
              let msg = Buffer.sub buffered 0 msg_size in
              if Buffer.length buffered = msg_size then Buffer.clear buffered
              else begin
                let rest =
                  Buffer.sub buffered msg_size (Buffer.length buffered - msg_size)
                in
                Buffer.clear buffered;
                Buffer.add_string buffered rest
              end;
              stack.Net_api.charge_app ~thread app_ns;
              ignore (conn.Net_api.send msg)
            done);
      })

let echo_leg ?(seed = 42) ?(spec = Fault_plan.default) ?(soak_ms = 8)
    ?(server_threads = 2) ?(sessions = 24) ?(elastic_steps = [])
    ?(tx_snapshot = false) () =
  let msg_size = 64 and msgs_per_conn = 16 and client_threads = 2 in
  let server =
    Cluster.server_spec ~threads:server_threads ~nic_ports:1 Cluster.Ix
  in
  let cluster =
    Cluster.build ~seed ~client_hosts:2 ~client_threads ~client_kind:Cluster.Ix
      ~server ()
  in
  (* Copy-path pin for the zero-copy equivalence property: every NIC
     snapshots frames at transmit instead of borrowing the sender's
     mbuf.  A run must be byte-identical either way — refcounted
     borrowing is a pure optimization, even under wire faults. *)
  if tx_snapshot then begin
    Array.iter
      (fun nic -> Nic.set_tx_snapshot nic true)
      cluster.Cluster.server_nics;
    List.iter
      (fun nic -> Nic.set_tx_snapshot nic true)
      cluster.Cluster.client_nics
  end;
  let sim = cluster.Cluster.sim in
  let fm = Metrics.create () in
  let fi = Fault_plan.instantiate spec ~sim ~seed ~metrics:fm in
  chaos_echo_server cluster.Cluster.server fi ~port:7000 ~msg_size ~app_ns:150;
  let warmup = Sim_time.ms 2 in
  let t_fault = warmup in
  let t_stop = t_fault + Sim_time.ms soak_ms in
  (* Clients stop re-sessioning at [t_stop]; any connect they issue is
     therefore processed well before the drain sweep, so the sweep sees
     every tcb that will ever exist. *)
  let t_drain = t_stop + Sim_time.us 500 in
  let stats = Apps.Echo.new_stats () in
  let clients = Array.of_list cluster.Cluster.clients in
  let spacing = max 1 (warmup / (2 * sessions)) in
  for s = 0 to sessions - 1 do
    let client = clients.(s mod Array.length clients) in
    let thread = s / Array.length clients mod client_threads in
    ignore
      (Sim.at sim (s * spacing) (fun () ->
           Apps.Echo.client client
             ~now:(Cluster.now cluster)
             ~thread ~server_ip:cluster.Cluster.server_ip ~port:7000 ~msg_size
             ~msgs_per_conn ~stats ~stop_after:t_stop))
  done;
  (* Flow-group migrations mid-soak: each step retargets the live
     prefix while the fault plan is mangling the wire, so the audit
     below doubles as the migrate-under-load invariant check. *)
  let cp =
    match (elastic_steps, cluster.Cluster.server_ix) with
    | [], _ | _, None -> None
    | steps, Some host ->
        let cp = Control_plane.create host in
        let n = List.length steps in
        let window = Sim_time.ms soak_ms in
        List.iteri
          (fun i target ->
            let at = t_fault + (window * (i + 1) / (n + 1)) in
            ignore
              (Sim.at sim at (fun () ->
                   Control_plane.set_elastic_threads cp target)))
          steps;
        Some cp
  in
  let offered_base = ref 0 in
  ignore
    (Sim.at sim t_fault (fun () ->
         offered_base := offered_all cluster;
         arm fi cluster));
  let aborted = ref 0 in
  ignore (Sim.at sim t_drain (fun () -> aborted := drain cluster));
  Sim.run ~until:(t_drain + Sim_time.ms 3) sim;
  (* Quiesce completely: stragglers (reorder-delayed frames, TIME_WAIT
     expiries, final RST exchanges) all land before the audit reads. *)
  Sim.run sim;
  let audit_failures =
    audit ~fm
      ~wire_armed:(Fault_plan.wire_faults spec)
      ~offered_base:!offered_base cluster
  in
  let buf = Buffer.create 4096 in
  cluster_snapshot buf ~fm cluster;
  Printf.bprintf buf
    "echo.messages=%d\necho.connects=%d\necho.connect_failures=%d\n\
     echo.goodput_bytes=%d\necho.p50_ns=%d\necho.p99_ns=%d\n"
    stats.Apps.Echo.messages stats.Apps.Echo.connects
    stats.Apps.Echo.connect_failures stats.Apps.Echo.goodput_bytes
    (Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 50.)
    (Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99.);
  {
    leg_name = Printf.sprintf "echo seed=%d" seed;
    messages = stats.Apps.Echo.messages;
    aborted = !aborted;
    migrated =
      (match cp with
      | Some cp -> Control_plane.migrations_completed cp
      | None -> 0);
    app_crashes = Fault_plan.app_crashes fi;
    wire_losses =
      Metrics.counter_value fm "faults.wire_drops"
      + Metrics.counter_value fm "faults.flap_drops";
    audit_failures;
    snapshot = Buffer.contents buf;
  }

(* ------------------------------------------------------------------ *)
(* The memcached leg                                                   *)

let memcached_leg ?(seed = 42) ?(spec = Fault_plan.default) ?(soak_ms = 8)
    ?(server_threads = 2) ?(connections = 48) () =
  (* Handler crashes are the echo leg's concern; the KV handler is the
     stock application, so the crash stream must never be consulted. *)
  let spec = { spec with Fault_plan.app_crash_rate = 0. } in
  let server =
    Cluster.server_spec ~threads:server_threads ~nic_ports:1 Cluster.Ix
  in
  let cluster =
    Cluster.build ~seed ~client_hosts:2 ~client_threads:2
      ~client_kind:Cluster.Ix ~server ()
  in
  let sim = cluster.Cluster.sim in
  let fm = Metrics.create () in
  let fi = Fault_plan.instantiate spec ~sim ~seed ~metrics:fm in
  let mc =
    Apps.Memcached.server cluster.Cluster.server
      ~now:(Cluster.now cluster)
      ~port:11211 ()
  in
  let profile = Workloads.Size_dist.usr in
  Workloads.Keygen.preload ~insert:(Apps.Memcached.insert mc) ~profile ~seed:7;
  let warmup_ms = 2 in
  let offered_base = ref 0 in
  ignore
    (Sim.at sim (Sim_time.ms warmup_ms) (fun () ->
         offered_base := offered_all cluster;
         arm fi cluster));
  let result =
    Workloads.Mutilate.run ~sim ~clients:cluster.Cluster.clients
      ~server_ip:cluster.Cluster.server_ip ~port:11211 ~profile ~connections
      ~target_rps:80e3 ~warmup_ms ~duration_ms:soak_ms ~seed:(seed + 1) ()
  in
  let t_drain = Sim.now sim + Sim_time.us 500 in
  let aborted = ref 0 in
  ignore (Sim.at sim t_drain (fun () -> aborted := drain cluster));
  Sim.run ~until:(t_drain + Sim_time.ms 3) sim;
  Sim.run sim;
  let audit_failures =
    audit ~fm
      ~wire_armed:(Fault_plan.wire_faults spec)
      ~offered_base:!offered_base cluster
  in
  let buf = Buffer.create 4096 in
  cluster_snapshot buf ~fm cluster;
  Printf.bprintf buf
    "mc.issued=%d\nmc.completed=%d\nmc.achieved_rps=%.17g\nmc.avg_us=%.17g\n\
     mc.p99_us=%.17g\nmc.gets=%d\nmc.sets=%d\nmc.hits=%d\n"
    result.Workloads.Mutilate.issued result.Workloads.Mutilate.completed
    result.Workloads.Mutilate.achieved_rps result.Workloads.Mutilate.avg_us
    result.Workloads.Mutilate.p99_us (Apps.Memcached.gets mc)
    (Apps.Memcached.sets mc) (Apps.Memcached.hits mc);
  {
    leg_name = Printf.sprintf "memcached seed=%d" seed;
    messages = result.Workloads.Mutilate.completed;
    aborted = !aborted;
    migrated = 0;
    app_crashes = Fault_plan.app_crashes fi;
    wire_losses =
      Metrics.counter_value fm "faults.wire_drops"
      + Metrics.counter_value fm "faults.flap_drops";
    audit_failures;
    snapshot = Buffer.contents buf;
  }

(* ------------------------------------------------------------------ *)
(* The soak                                                            *)

let run ?(jobs = 1) ?(seed = 42) ?(spec = Fault_plan.default) ?(soak_ms = 8)
    ?(echo_legs = 3) ?(quiet = false) () =
  let thunks =
    List.init echo_legs (fun i () ->
        echo_leg ~seed:(seed + (17 * i)) ~spec ~soak_ms ())
    @ [ (fun () -> memcached_leg ~seed:(seed + 101) ~spec ~soak_ms ()) ]
  in
  let legs = Engine.Domain_pool.map_jobs ~jobs thunks in
  if not quiet then begin
    let rows =
      List.map
        (fun l ->
          [
            l.leg_name;
            string_of_int l.messages;
            string_of_int l.app_crashes;
            string_of_int l.wire_losses;
            string_of_int l.aborted;
            (match l.audit_failures with
            | [] -> "PASS"
            | fs -> String.concat "; " fs);
          ])
        legs
    in
    Report.table
      ~title:(Printf.sprintf "Chaos soak (plan: %s)" (Fault_plan.to_string spec))
      ~headers:[ "leg"; "msgs"; "crashes"; "wire loss"; "drained"; "audit" ]
      rows
  end;
  List.iter
    (fun l ->
      if l.audit_failures <> [] then
        failwith
          (Printf.sprintf "chaos audit failed (%s): %s" l.leg_name
             (String.concat "; " l.audit_failures)))
    legs;
  legs
