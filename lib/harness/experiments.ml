module Sim = Engine.Sim
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer

type echo_point = {
  label : string;
  cores : int;
  msgs_per_conn : int;
  msg_size : int;
  msgs_per_sec : float;
  conns_per_sec : float;
  goodput_gbps : float;
  p99_us : float;
  cpu_utilization : float;
      (** busy share of the server cores during the window *)
  polling : bool;
}

type netpipe_point = { system : string; size : int; one_way_us : float; gbps : float }

type memcached_point = {
  system : string;
  workload : string;
  target_krps : float;
  achieved_krps : float;
  avg_us : float;
  p99 : float;
  kernel_share : float;
}

let scale () =
  match Sys.getenv_opt "IX_BENCH_SCALE" with
  | Some s -> ( try max 0.05 (float_of_string s) with _ -> 1.0)
  | None -> 1.0

let scaled_ms ms = max 2 (int_of_float (float_of_int ms *. scale ()))

let kind_name = function
  | Cluster.Ix -> "IX"
  | Cluster.Linux -> "Linux"
  | Cluster.Mtcp -> "mTCP"

(* [--fast-path=off] support: a per-kind TCP config override that
   disables the header-prediction receive fast path
   ([Tcb.config.fast_path]).  [None] keeps the stack's own default
   config, i.e. fast path on. *)
let tcp_override ~fast_path kind =
  if fast_path then None
  else
    let base =
      match kind with
      | Cluster.Ix -> Ix_core.Ix_host.ix_tcp_config
      | Cluster.Linux -> Baselines.Linux_stack.linux_tcp_config
      | Cluster.Mtcp -> Baselines.Mtcp_stack.mtcp_tcp_config
    in
    Some { base with Ixtcp.Tcb.fast_path = false }

(* Sum the header-prediction hit counters (tcp.<core>.fast_path_hits /
   slow_path_hits) over every stack in a cluster into the caller's
   accumulators.  Read after the measurement window; deliberately kept
   out of metric snapshot strings so fast-on and fast-off runs can be
   compared bit-for-bit. *)
let accumulate_fast_path_hits ?hits (cluster : Cluster.t) =
  match hits with
  | None -> ()
  | Some (fast_acc, slow_acc) ->
      let tally stack =
        List.iter
          (fun (name, v) ->
            match v with
            | Metrics.Counter n
              when String.ends_with ~suffix:"fast_path_hits" name ->
                fast_acc := !fast_acc + n
            | Metrics.Counter n
              when String.ends_with ~suffix:"slow_path_hits" name ->
                slow_acc := !slow_acc + n
            | _ -> ())
          (stack.Net_api.metrics ())
      in
      tally cluster.Cluster.server;
      List.iter tally cluster.Cluster.clients

(* ------------------------------------------------------------------ *)
(* Run configuration: telemetry output and parallelism                 *)

type output = { metrics : bool; trace : string option }

let default_output = { metrics = false; trace = None }

let default_jobs () =
  match Sys.getenv_opt "IX_BENCH_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* Telemetry prints from inside runners while they execute, so
   requesting it forces the sequential path — interleaved tables would
   be useless.  [jobs <= 1] is the plain [List.map] code path: a
   parallel run with the same seeds must match it bit-for-bit (the
   determinism invariant), so sequential is the reference. *)
let resolve_jobs ~output jobs =
  if output.metrics || output.trace <> None then 1 else max 1 jobs

(* Fan independent, self-contained simulation thunks over [jobs]
   domains; results come back in submission order. *)
let par_map ~jobs fs = Engine.Domain_pool.map_jobs ~jobs fs

let merge_breakdowns tracers =
  List.map
    (fun stage ->
      List.fold_left
        (fun (s, ns, n) tr ->
          match
            List.find_opt (fun (s', _, _) -> s' = stage) (Tracer.breakdown tr)
          with
          | Some (_, ns', n') -> (s, ns + ns', n + n')
          | None -> (s, ns, n))
        (stage, 0, 0) tracers)
    Tracer.stages

let print_breakdown ~label rows =
  let busy = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 rows in
  let table_rows =
    List.map
      (fun (stage, ns, n) ->
        [
          Tracer.stage_name stage;
          string_of_int ns;
          string_of_int n;
          (if n = 0 then "-" else Printf.sprintf "%.0f" (float_of_int ns /. float_of_int n));
          Report.pct (if busy = 0 then 0. else float_of_int ns /. float_of_int busy);
        ])
      rows
    @ [ [ "total busy"; string_of_int busy; ""; ""; "" ] ]
  in
  Report.table
    ~title:(Printf.sprintf "Cycle breakdown (cf. Table 2): %s" label)
    ~headers:[ "stage"; "ns"; "spans"; "avg ns"; "share" ]
    table_rows

let dump_trace path tracers =
  try
    Ixtelemetry.Trace_export.write_file path tracers;
    Printf.printf "Chrome trace written to %s\n%!" path
  with Sys_error msg -> Printf.eprintf "cannot write trace: %s\n%!" msg

(* Emit whatever telemetry output was requested for a finished run:
   Table-2-style per-stage breakdown (IX servers), the server's metric
   snapshot through the portable stack interface, and a Chrome
   trace_event dump of the retained spans. *)
let emit_server_stats ~output ~label cluster =
  (match cluster.Cluster.server_ix with
  | Some host when output.metrics ->
      print_breakdown ~label (merge_breakdowns (Ix_core.Ix_host.tracers host))
  | _ -> ());
  if output.metrics then begin
    let rows =
      List.map
        (fun (name, v) -> [ name; Format.asprintf "%a" Metrics.pp_value v ])
        (cluster.Cluster.server.Net_api.metrics ())
    in
    Report.table
      ~title:(Printf.sprintf "Server metrics: %s" label)
      ~headers:[ "metric"; "value" ] rows
  end;
  match (output.trace, cluster.Cluster.server_ix) with
  | Some path, Some host -> dump_trace path (Ix_core.Ix_host.tracers host)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Echo runner (Figs. 3a/3b/3c and the ablations)                      *)

(* Aggregate batch statistics across a host's elastic threads, read
   straight from each dataplane's batcher after the measurement
   window: (mean admitted batch, mean TX burst, largest bound in
   effect). *)
let host_batch_stats host =
  let packets = ref 0 and cycles = ref 0 in
  let txp = ref 0 and txb = ref 0 in
  let bound = ref 0 in
  Ix_core.Ix_host.iter_threads host (fun dp ->
      let b = Ix_core.Dataplane.batcher dp in
      packets := !packets + Ix_core.Batch.packets b;
      cycles := !cycles + Ix_core.Batch.cycles b;
      txp := !txp + Ix_core.Batch.tx_packets b;
      txb := !txb + Ix_core.Batch.tx_bursts b;
      bound := max !bound (Ix_core.Batch.bound b));
  let mean num den =
    if den = 0 then 0. else float_of_int num /. float_of_int den
  in
  (mean !packets !cycles, mean !txp !txb, !bound)

let run_echo ?(output = default_output) ?(label = "") ?(client_hosts = 6)
    ?(client_threads = 8) ?(sessions = 768) ?cache ?pcie ?(zero_copy = true)
    ?(polling = true) ?(batch_bound = 64) ?(batch_mode = Ix_core.Batch.Fixed)
    ?batch_stats ?(fast_path = true) ?hits
    ?(elastic = false) ~kind ~ports ~cores ~msg_size ~msgs_per_conn () =
  let server =
    Cluster.server_spec ~threads:cores ~nic_ports:ports ~batch_bound
      ~batch_mode ~zero_copy ~polling ?cache ?pcie
      ?tcp_config:(tcp_override ~fast_path kind)
      kind
  in
  let cluster =
    Cluster.build ~client_hosts ~client_threads
      ?client_tcp_config:(tcp_override ~fast_path Cluster.Linux)
      ~server ()
  in
  (* --elastic: arm the core-allocation policy loop on an IX server
     ([cores] becomes provisioned capacity; the loop starts at one live
     core and scales with load).  Off by default — an elastic-off run
     is byte-identical to a tree without the elastic machinery. *)
  let elastic_state =
    match (elastic, cluster.Cluster.server_ix) with
    | true, Some host ->
        let cp = Ix_core.Control_plane.create host in
        Ix_core.Control_plane.set_elastic_threads cp 1;
        let config =
          {
            Ix_core.Elastic.default_config with
            Ix_core.Elastic.max_cores = cores;
          }
        in
        Some (cp, Ix_core.Elastic.start ~sim:cluster.Cluster.sim ~cp ~config ())
    | _ -> None
  in
  let echo_app_ns = 150 in
  Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size
    ~app_ns:echo_app_ns;
  let warmup = Engine.Sim_time.ms (scaled_ms 4) in
  let measure = Engine.Sim_time.ms (scaled_ms 10) in
  let stop_after = warmup + measure in
  let stats = Apps.Echo.new_stats () in
  let clients = Array.of_list cluster.Cluster.clients in
  (* Ramp sessions up over the first part of the warmup rather than
     SYN-storming an empty server at t=0 (as real load generators do). *)
  let spacing = max 1 (warmup / (2 * sessions)) in
  for s = 0 to sessions - 1 do
    let client = clients.(s mod Array.length clients) in
    let thread = s / Array.length clients mod client_threads in
    ignore
      (Sim.at cluster.Cluster.sim (s * spacing) (fun () ->
           Apps.Echo.client client
             ~now:(Cluster.now cluster)
             ~thread ~server_ip:cluster.Cluster.server_ip ~port:7000 ~msg_size
             ~msgs_per_conn ~stats ~stop_after))
  done;
  (* All three stacks publish a "busy_ns" gauge; read it through the
     portable interface instead of reaching into IX internals. *)
  let server_busy () = Net_api.busy_ns cluster.Cluster.server in
  Sim.run ~until:warmup cluster.Cluster.sim;
  let warm_msgs = stats.Apps.Echo.messages in
  let warm_conns = stats.Apps.Echo.connects in
  let warm_busy = server_busy () in
  Sim.run ~until:stop_after cluster.Cluster.sim;
  accumulate_fast_path_hits ?hits cluster;
  (match (batch_stats, cluster.Cluster.server_ix) with
  | Some cell, Some host -> cell := host_batch_stats host
  | _ -> ());
  (match elastic_state with
  | Some (cp, el) ->
      Ix_core.Elastic.stop el;
      let peak =
        List.fold_left
          (fun acc s -> max acc s.Ix_core.Elastic.cores)
          1
          (Ix_core.Elastic.samples el)
      in
      Printf.printf
        "elastic: peak %d/%d cores, %d live at end, %d flow-group migrations\n%!"
        peak cores
        (Ix_core.Control_plane.active_threads cp)
        (Ix_core.Control_plane.migrations_completed cp)
  | None -> ());
  let busy_delta = server_busy () - warm_busy in
  let cpu_utilization =
    float_of_int busy_delta /. float_of_int (cores * measure)
  in
  let seconds = Engine.Sim_time.to_float_s measure in
  let msgs = float_of_int (stats.Apps.Echo.messages - warm_msgs) /. seconds in
  let conns = float_of_int (stats.Apps.Echo.connects - warm_conns) /. seconds in
  let goodput_gbps = msgs *. float_of_int msg_size *. 8. /. 1e9 in
  let label =
    if label <> "" then label
    else Printf.sprintf "%s-%dG" (kind_name kind) (10 * ports)
  in
  emit_server_stats ~output
    ~label:(Printf.sprintf "%s echo s=%dB n=%d, %d cores" label msg_size msgs_per_conn cores)
    cluster;
  {
    label;
    cores;
    msgs_per_conn;
    msg_size;
    msgs_per_sec = msgs;
    conns_per_sec = conns;
    goodput_gbps;
    p99_us = float_of_int (Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99.) /. 1e3;
    cpu_utilization;
    polling;
  }

(* Table-2-style per-stage accounting for a 64 B echo run on IX: the
   per-stage ns across all elastic threads, plus the total busy time
   the cores accounted (kernel + user).  The tracer attributes every
   charged nanosecond to exactly one stage, so the breakdown sums to
   the busy total — the acceptance check in test_telemetry. *)
let echo_breakdown ?(output = default_output) ?(cores = 1) ?(msg_size = 64) () =
  let server = Cluster.server_spec ~threads:cores ~nic_ports:1 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:2 ~client_threads:4 ~server () in
  Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size ~app_ns:150;
  let stats = Apps.Echo.new_stats () in
  let stop_after = Engine.Sim_time.ms (scaled_ms 6) in
  let clients = Array.of_list cluster.Cluster.clients in
  let sessions = 64 in
  for s = 0 to sessions - 1 do
    let client = clients.(s mod Array.length clients) in
    let thread = s / Array.length clients mod 4 in
    ignore
      (Sim.at cluster.Cluster.sim (s * 1_000) (fun () ->
           Apps.Echo.client client
             ~now:(Cluster.now cluster)
             ~thread ~server_ip:cluster.Cluster.server_ip ~port:7000 ~msg_size
             ~msgs_per_conn:32 ~stats ~stop_after))
  done;
  Sim.run ~until:stop_after cluster.Cluster.sim;
  let host = Option.get cluster.Cluster.server_ix in
  let rows = merge_breakdowns (Ix_core.Ix_host.tracers host) in
  let busy =
    Ix_core.Ix_host.total_kernel_ns host + Ix_core.Ix_host.total_user_ns host
  in
  print_breakdown
    ~label:(Printf.sprintf "IX echo s=%dB, %d cores" msg_size cores)
    rows;
  (match output.trace with
  | Some path -> dump_trace path (Ix_core.Ix_host.tracers host)
  | None -> ());
  (rows, busy)

let fig3_systems =
  [
    ("Linux-10G", Cluster.Linux, 1);
    ("Linux-40G", Cluster.Linux, 4);
    ("mTCP-10G", Cluster.Mtcp, 1);
    ("IX-10G", Cluster.Ix, 1);
    ("IX-40G", Cluster.Ix, 4);
  ]

let fig3a ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let cores_list = [ 1; 2; 3; 4; 6; 8 ] in
  let points =
    par_map ~jobs
      (List.concat_map
         (fun (label, kind, ports) ->
           List.map
             (fun cores () ->
               run_echo ~output ~label ~kind ~ports ~cores ~msg_size:64
                 ~msgs_per_conn:1 ())
             cores_list)
         fig3_systems)
  in
  let rows =
    List.map
      (fun p ->
        [
          p.label;
          string_of_int p.cores;
          Report.mps p.msgs_per_sec;
          Report.mps p.conns_per_sec;
        ])
      points
  in
  Report.table ~title:"Fig 3a: multi-core scalability (echo s=64B, n=1)"
    ~headers:[ "system"; "cores"; "msgs/s"; "conns/s" ]
    rows;
  points

(* The sharded-sim reading of Fig. 3a, IX only: every point is one
   simulated host running N per-core dataplanes fed by the NIC's RSS
   indirection table (flow groups are the unit of placement), and the
   table makes the scaling factor explicit with a speedup-vs-1-core
   column — the near-linear-scaling deliverable of DESIGN.md §8. *)
let fig3a_sim ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let cores_list = [ 1; 2; 3; 4; 6; 8 ] in
  let points =
    par_map ~jobs
      (List.concat_map
         (fun (label, ports) ->
           List.map
             (fun cores () ->
               run_echo ~output ~label ~kind:Cluster.Ix ~ports ~cores
                 ~msg_size:64 ~msgs_per_conn:1 ())
             cores_list)
         [ ("IX-10G", 1); ("IX-40G", 4) ])
  in
  let base label =
    match
      List.find_opt (fun p -> p.label = label && p.cores = 1) points
    with
    | Some p when p.msgs_per_sec > 0. -> p.msgs_per_sec
    | _ -> 0.
  in
  let rows =
    List.map
      (fun p ->
        let b = base p.label in
        [
          p.label;
          string_of_int p.cores;
          Report.mps p.msgs_per_sec;
          (if b <= 0. then "-"
           else Printf.sprintf "%.2fx" (p.msgs_per_sec /. b));
        ])
      points
  in
  Report.table
    ~title:
      "Fig 3a (sharded sim): one host, N per-core dataplanes, RSS flow groups"
    ~headers:[ "system"; "cores"; "msgs/s"; "speedup" ]
    rows;
  points

let fig3b ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let ns = [ 1; 8; 32; 128; 512; 1024 ] in
  let points =
    par_map ~jobs
      (List.concat_map
         (fun (label, kind, ports) ->
           List.map
             (fun n () ->
               run_echo ~output ~label ~kind ~ports ~cores:8 ~msg_size:64
                 ~msgs_per_conn:n ())
             ns)
         fig3_systems)
  in
  let rows =
    List.map
      (fun p ->
        [ p.label; string_of_int p.msgs_per_conn; Report.mps p.msgs_per_sec ])
      points
  in
  Report.table ~title:"Fig 3b: messages per connection sweep (s=64B, 8 cores)"
    ~headers:[ "system"; "n"; "msgs/s" ] rows;
  points

let fig3c ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let sizes = [ 64; 256; 1024; 4096; 8192 ] in
  let points =
    par_map ~jobs
      (List.concat_map
         (fun (label, kind, ports) ->
           List.map
             (fun s () ->
               run_echo ~output ~label ~kind ~ports ~cores:8 ~msg_size:s
                 ~msgs_per_conn:1 ())
             sizes)
         fig3_systems)
  in
  let rows =
    List.map
      (fun p ->
        [ p.label; string_of_int p.msg_size; Report.gbps p.goodput_gbps; Report.mps p.msgs_per_sec ])
      points
  in
  Report.table ~title:"Fig 3c: message size sweep (n=1, 8 cores)"
    ~headers:[ "system"; "size B"; "goodput Gbps"; "msgs/s" ]
    rows;
  points

(* ------------------------------------------------------------------ *)
(* Fig. 2: NetPIPE                                                     *)

let netpipe_once ?(fast_path = true) ?hits ~kind ~size () =
  let tcp = tcp_override ~fast_path kind in
  let server =
    Cluster.server_spec ~threads:1 ~nic_ports:1 ?tcp_config:tcp kind
  in
  let cluster =
    Cluster.build ~client_hosts:1 ~client_threads:1 ~client_kind:kind
      ?client_tcp_config:tcp ~server ()
  in
  Apps.Netpipe.server cluster.Cluster.server ~port:7410 ~msg_size:size;
  let result = ref None in
  let iterations = max 8 (min 200 (300_000 / size)) in
  Apps.Netpipe.client
    (List.hd cluster.Cluster.clients)
    ~now:(Cluster.now cluster)
    ~server_ip:cluster.Cluster.server_ip ~port:7410 ~msg_size:size
    ~iterations
    ~on_done:(fun r -> result := Some r);
  Sim.run ~until:(Engine.Sim_time.s 30) cluster.Cluster.sim;
  accumulate_fast_path_hits ?hits cluster;
  match !result with
  | Some r ->
      ({
         system = kind_name kind;
         size;
         one_way_us = r.Apps.Netpipe.one_way_ns /. 1e3;
         gbps = r.Apps.Netpipe.goodput_gbps;
       }
        : netpipe_point)
  | None ->
      ({ system = kind_name kind; size; one_way_us = nan; gbps = nan } : netpipe_point)

let fig2 ?(jobs = default_jobs ())
    ?(sizes = [ 64; 1024; 4096; 16_384; 65_536; 131_072; 262_144; 393_216; 524_288 ])
    () =
  let points =
    par_map ~jobs
      (List.concat_map
         (fun kind -> List.map (fun size () -> netpipe_once ~kind ~size ()) sizes)
         [ Cluster.Linux; Cluster.Mtcp; Cluster.Ix ])
  in
  let rows =
    List.map
      (fun (p : netpipe_point) ->
        [ p.system; string_of_int p.size; Report.us p.one_way_us; Report.gbps p.gbps ])
      points
  in
  Report.table ~title:"Fig 2: NetPIPE (one-way latency, goodput)"
    ~headers:[ "system"; "msg size B"; "one-way us"; "goodput Gbps" ]
    rows;
  points

(* ------------------------------------------------------------------ *)
(* Fig. 4: connection scalability                                      *)

let run_connection_scaling ?(fast_path = true) ?hits ~kind ~conns ~workers
    () =
  let cache = Ixhw.Cache_model.create () in
  let server =
    Cluster.server_spec ~threads:8 ~nic_ports:4 ~cache
      ?tcp_config:(tcp_override ~fast_path kind)
      kind
  in
  let cluster =
    Cluster.build ~client_hosts:6 ~client_threads:8
      ?client_tcp_config:(tcp_override ~fast_path Cluster.Linux)
      ~server ()
  in
  Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size:64
    ~app_ns:150;
  let sim = cluster.Cluster.sim in
  let clients = Array.of_list cluster.Cluster.clients in
  let message = String.make 64 'c' in
  (* Connection slots; workers rotate over their partition. *)
  let slot_conn = Array.make conns None in
  let slot_worker = Array.make conns (-1) in
  let slot_rx = Array.make conns 0 in
  let completed = ref 0 in
  let send_on slot =
    match slot_conn.(slot) with
    | Some conn -> ignore (conn.Net_api.send message)
    | None -> ()
  in
  let worker_next = Array.make workers 0 in
  let rec advance_worker w =
    (* Next *established* slot owned by worker w (slots w, w+W, ...);
       during ramp-up, retry until one connects. *)
    let steps = (conns - w + workers - 1) / workers in
    let rec find tries =
      if steps = 0 || tries >= steps then None
      else begin
        let k = worker_next.(w) mod steps in
        worker_next.(w) <- worker_next.(w) + 1;
        let slot = w + (k * workers) in
        if Option.is_some slot_conn.(slot) then Some slot else find (tries + 1)
      end
    in
    match find 0 with
    | Some slot ->
        slot_worker.(slot) <- w;
        send_on slot
    | None ->
        ignore (Sim.after sim (Engine.Sim_time.ms 1) (fun () -> advance_worker w))
  in
  let on_slot_response slot =
    slot_rx.(slot) <- slot_rx.(slot) + 64;
    if slot_rx.(slot) >= 64 then begin
      slot_rx.(slot) <- slot_rx.(slot) - 64;
      incr completed;
      let w = slot_worker.(slot) in
      if w >= 0 then advance_worker w
    end
  in
  (* Staggered establishment, paced to the server's accept rate. *)
  let stagger_ns = match kind with Cluster.Linux -> 2_500 | _ -> 400 in
  for slot = 0 to conns - 1 do
    let client_idx = slot mod Array.length clients in
    let thread = slot / Array.length clients mod 8 in
    let handlers =
      {
        Net_api.on_connected =
          (fun conn ~ok -> if ok then slot_conn.(slot) <- Some conn);
        on_data = (fun _ _data -> on_slot_response slot);
        on_sent = (fun _ _ -> ());
        on_closed = (fun _ _ -> ());
      }
    in
    ignore
      (Sim.at sim (slot * stagger_ns) (fun () ->
           clients.(client_idx).Net_api.connect ~thread
             ~ip:cluster.Cluster.server_ip ~port:7000 handlers))
  done;
  let setup = Engine.Sim_time.ms (max 4 ((conns * stagger_ns / 1_000_000) + 4)) in
  Sim.run ~until:setup sim;
  (* Start the workers. *)
  for w = 0 to workers - 1 do
    advance_worker w
  done;
  let warmup = setup + Engine.Sim_time.ms (scaled_ms 4) in
  Sim.run ~until:warmup sim;
  let base = !completed in
  let measure = Engine.Sim_time.ms (scaled_ms 10) in
  Sim.run ~until:(warmup + measure) sim;
  accumulate_fast_path_hits ?hits cluster;
  float_of_int (!completed - base) /. Engine.Sim_time.to_float_s measure

let fig4 ?(jobs = default_jobs ())
    ?(conn_counts = [ 100; 1_000; 10_000; 50_000; 100_000; 250_000 ]) () =
  let points =
    par_map ~jobs
      (List.concat_map
         (fun (name, kind) ->
           List.map
             (fun conns () ->
               (name, conns, run_connection_scaling ~kind ~conns ~workers:384 ()))
             conn_counts)
         [ ("IX-40G", Cluster.Ix); ("Linux-40G", Cluster.Linux) ])
  in
  let rows =
    List.map (fun (name, conns, rate) -> [ name; string_of_int conns; Report.mps rate ]) points
  in
  Report.table ~title:"Fig 4: connection scalability (64B echo, 4x10GbE)"
    ~headers:[ "system"; "connections"; "msgs/s" ]
    rows;
  points

(* ------------------------------------------------------------------ *)
(* Fig. 5 / Fig. 6 / Table 2: memcached                                *)

let run_memcached ?(output = default_output) ?(fast_path = true) ?hits ~kind
    ~server_threads ?(batch_bound = 64) ~profile ~target_rps () =
  let server =
    Cluster.server_spec ~threads:server_threads ~nic_ports:1 ~batch_bound
      ?tcp_config:(tcp_override ~fast_path kind)
      kind
  in
  let cluster =
    Cluster.build ~client_hosts:6 ~client_threads:8
      ?client_tcp_config:(tcp_override ~fast_path Cluster.Linux)
      ~server ()
  in
  let mc =
    Apps.Memcached.server cluster.Cluster.server
      ~now:(Cluster.now cluster)
      ~port:11211 ()
  in
  Workloads.Keygen.preload ~insert:(Apps.Memcached.insert mc) ~profile ~seed:7;
  let result =
    Workloads.Mutilate.run ~sim:cluster.Cluster.sim
      ~clients:cluster.Cluster.clients
      ~server_ip:cluster.Cluster.server_ip ~port:11211 ~profile
      ~connections:1476 ~target_rps
      ~warmup_ms:(scaled_ms 8)
      ~duration_ms:(scaled_ms 40)
      ~seed:11 ()
  in
  accumulate_fast_path_hits ?hits cluster;
  emit_server_stats ~output
    ~label:
      (Printf.sprintf "%s memcached %s @ %.0fK" (kind_name kind)
         profile.Workloads.Size_dist.name (target_rps /. 1e3))
    cluster;
  (result, Net_api.kernel_share cluster.Cluster.server)

let fig5_targets = [ 100e3; 250e3; 500e3; 750e3; 1000e3; 1250e3; 1500e3; 1800e3; 2000e3 ]

let fig5 ?(output = default_output) ?(jobs = default_jobs ())
    ?(targets = fig5_targets)
    ?(profiles = [ Workloads.Size_dist.etc; Workloads.Size_dist.usr ]) () =
  let jobs = resolve_jobs ~output jobs in
  let configs =
    [
      ("Linux", Cluster.Linux, 8);
      ("IX", Cluster.Ix, 6);
    ]
  in
  let points =
    par_map ~jobs
      (List.concat_map
         (fun profile ->
           List.concat_map
             (fun (name, kind, threads) ->
               List.map
                 (fun target_rps () ->
                   let r, kshare =
                     run_memcached ~output ~kind ~server_threads:threads
                       ~profile ~target_rps ()
                   in
                   {
                     system = name;
                     workload = profile.Workloads.Size_dist.name;
                     target_krps = target_rps /. 1e3;
                     achieved_krps = r.Workloads.Mutilate.achieved_rps /. 1e3;
                     avg_us = r.Workloads.Mutilate.avg_us;
                     p99 = r.Workloads.Mutilate.p99_us;
                     kernel_share = kshare;
                   })
                 targets)
             configs)
         profiles)
  in
  let rows =
    List.map
      (fun p ->
        [
          p.workload;
          p.system;
          Printf.sprintf "%.0fK" p.target_krps;
          Printf.sprintf "%.0fK" p.achieved_krps;
          Report.us p.avg_us;
          Report.us p.p99;
          Report.pct p.kernel_share;
        ])
      points
  in
  Report.table
    ~title:"Fig 5: memcached latency vs throughput (1476 connections)"
    ~headers:[ "workload"; "system"; "target"; "achieved"; "avg us"; "p99 us"; "kernel" ]
    rows;
  points

let table2 ?(output = default_output) ?(jobs = default_jobs ()) fig5_points =
  let jobs = resolve_jobs ~output jobs in
  let sla = 500. in
  let best workload system =
    List.fold_left
      (fun acc p ->
        if p.workload = workload && p.system = system && p.p99 <= sla then
          max acc p.achieved_krps
        else acc)
      0. fig5_points
  in
  let unloaded workload kind threads () =
    let profile = Workloads.Size_dist.by_name workload in
    let r, _ =
      run_memcached ~output ~kind ~server_threads:threads ~profile
        ~target_rps:20e3 ()
    in
    r.Workloads.Mutilate.p99_us
  in
  let latencies =
    par_map ~jobs
      (List.concat_map
         (fun w -> [ unloaded w Cluster.Linux 8; unloaded w Cluster.Ix 6 ])
         [ "ETC"; "USR" ])
  in
  let rows =
    List.concat
      (List.map2
         (fun workload (linux_p99, ix_p99) ->
           [
             [
               workload ^ "-Linux";
               Report.us linux_p99;
               Printf.sprintf "%.0fK" (best workload "Linux");
             ];
             [
               workload ^ "-IX";
               Report.us ix_p99;
               Printf.sprintf "%.0fK" (best workload "IX");
             ];
           ])
         [ "ETC"; "USR" ]
         (match latencies with
         | [ a; b; c; d ] -> [ (a, b); (c, d) ]
         | _ -> assert false))
  in
  Report.table
    ~title:"Table 2: unloaded p99 latency and max RPS under 500us p99 SLA"
    ~headers:[ "configuration"; "min latency p99 us"; "RPS for SLA" ]
    rows

let fig6 ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let bounds = [ 1; 2; 8; 16; 64 ] in
  let profile = Workloads.Size_dist.usr in
  let points =
    par_map ~jobs
      (List.map
         (fun b () ->
           let high, _ =
             run_memcached ~output ~kind:Cluster.Ix ~server_threads:6
               ~batch_bound:b ~profile ~target_rps:2400e3 ()
           in
           let low, _ =
             run_memcached ~output ~kind:Cluster.Ix ~server_threads:6
               ~batch_bound:b ~profile ~target_rps:200e3 ()
           in
           ( b,
             high.Workloads.Mutilate.achieved_rps /. 1e3,
             low.Workloads.Mutilate.p99_us ))
         bounds)
  in
  let rows =
    List.map
      (fun (b, high_krps, low_p99) ->
        [ string_of_int b; Printf.sprintf "%.0fK" high_krps; Report.us low_p99 ])
      points
  in
  Report.table ~title:"Fig 6: batch bound B (USR workload, IX)"
    ~headers:[ "B"; "achieved at high load"; "p99 at low load us" ]
    rows;
  points

(* ------------------------------------------------------------------ *)
(* Batch sweep: fixed B values against the adaptive controller         *)

(* Fixed bounds bracket the paper's Fig. 6 range; the adaptive row
   starts at B=8 so the sweep shows the controller actually moving
   (it must climb toward the ceiling under the echo load, not merely
   inherit a good static choice). *)
let batch_sweep_configs =
  [
    ("B=1", 1, Ix_core.Batch.Fixed);
    ("B=8", 8, Ix_core.Batch.Fixed);
    ("B=64", 64, Ix_core.Batch.Fixed);
    ("adaptive 1..64", 8, Ix_core.Batch.Adaptive { floor = 1; ceiling = 64 });
  ]

let batch_sweep ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let points =
    par_map ~jobs
      (List.map
         (fun (label, bound, mode) () ->
           let stats = ref (0., 0., 0) in
           let p =
             run_echo ~output ~label ~client_hosts:4 ~client_threads:8
               ~sessions:512 ~kind:Cluster.Ix ~ports:1 ~cores:2 ~msg_size:64
               ~msgs_per_conn:8 ~batch_bound:bound ~batch_mode:mode
               ~batch_stats:stats ()
           in
           (label, p, !stats))
         batch_sweep_configs)
  in
  let rows =
    List.map
      (fun (label, p, (mean_batch, mean_tx, bound_end)) ->
        [
          label;
          Report.mps p.msgs_per_sec;
          Report.us p.p99_us;
          Printf.sprintf "%.1f" mean_batch;
          Printf.sprintf "%.1f" mean_tx;
          string_of_int bound_end;
        ])
      points
  in
  Report.table
    ~title:"Batch sweep: fixed B vs adaptive controller (64B echo, 2 cores)"
    ~headers:
      [ "config"; "msgs/s"; "p99 us"; "mean batch"; "mean TX burst"; "B in effect" ]
    rows;
  points

(* ------------------------------------------------------------------ *)
(* Incast (extension): fine-grained timers and DCTCP, per §6           *)

(* N synchronized senders each ship one [block] to a single receiver
   through its 10GbE port, whose switch-side queue holds only
   [queue_limit] bytes — the classic incast fan-in.  We compare a
   coarse 200 ms RTO (commodity kernel default), the 1 ms RTO the 16 µs
   timing wheel makes practical [64], and DCTCP over an ECN-marking
   queue. *)
let run_incast_stats ~senders ~block ~config ~ecn =
  let receiver = Cluster.server_spec ~threads:4 ~tcp_config:config Cluster.Ix in
  let queue_limit = 64 * 1024 in
  let cluster =
    Cluster.build ~client_hosts:senders ~client_threads:1 ~client_kind:Cluster.Ix
      ~client_tcp_config:config
      ?server_ecn_threshold_bytes:(if ecn then Some (24 * 1024) else None)
      ~server_queue_limit_bytes:queue_limit ~server:receiver ()
  in
  let received = ref 0 in
  let total = senders * block in
  let finished_at = ref 0 in
  cluster.Cluster.server.Net_api.listen ~port:9100 (fun ~thread:_ _conn ->
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun _ data ->
            received := !received + String.length data;
            if !received >= total then finished_at := Sim.now cluster.Cluster.sim);
      });
  let payload = String.make block 'i' in
  let start = Engine.Sim_time.ms 2 in
  List.iter
    (fun client ->
      ignore
        (Sim.at cluster.Cluster.sim start (fun () ->
             client.Net_api.connect ~thread:0 ~ip:cluster.Cluster.server_ip
               ~port:9100
               {
                 Net_api.null_handlers with
                 Net_api.on_connected =
                   (fun conn ~ok -> if ok then ignore (conn.Net_api.send payload));
               })))
    cluster.Cluster.clients;
  Sim.run ~until:(Engine.Sim_time.s 3) cluster.Cluster.sim;
  let marked, dropped = Cluster.server_link_stats cluster in
  let goodput =
    if !finished_at = 0 then 0.
    else begin
      let elapsed = !finished_at - start in
      float_of_int (8 * total) /. float_of_int elapsed (* Gbps *)
    end
  in
  (goodput, marked, dropped)

let run_incast ~senders ~block ~config ~ecn =
  let goodput, _, _ = run_incast_stats ~senders ~block ~config ~ecn in
  goodput

let incast ?(jobs = default_jobs ()) () =
  let block = 256 * 1024 in
  let coarse =
    { Ix_core.Ix_host.ix_tcp_config with Ixtcp.Tcb.min_rto_ns = 200_000_000 }
  in
  let fine = Ix_core.Ix_host.ix_tcp_config (* 1 ms RTO via the timing wheel *) in
  let dctcp = { fine with Ixtcp.Tcb.dctcp = true } in
  let rows =
    par_map ~jobs
      (List.map
         (fun senders () ->
           let coarse_g, _, coarse_d =
             run_incast_stats ~senders ~block ~config:coarse ~ecn:false
           in
           let fine_g, _, fine_d =
             run_incast_stats ~senders ~block ~config:fine ~ecn:false
           in
           let dctcp_g, dctcp_m, dctcp_d =
             run_incast_stats ~senders ~block ~config:dctcp ~ecn:true
           in
           [
             string_of_int senders;
             Report.gbps coarse_g;
             string_of_int coarse_d;
             Report.gbps fine_g;
             string_of_int fine_d;
             Report.gbps dctcp_g;
             string_of_int dctcp_d;
             string_of_int dctcp_m;
           ])
         [ 4; 8; 16; 32; 48 ])
  in
  Report.table
    ~title:
      "Incast (extension, per paper-§6): 256KB fan-in, 64KB switch buffer"
    ~headers:
      [
        "senders";
        "200ms Gbps";
        "drops";
        "1ms Gbps";
        "drops";
        "DCTCP Gbps";
        "drops";
        "marks";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Energy proportionality (extension, §4.3/§6)                         *)

(* The quiescent dataplane either polls (hyperthread-friendly spin:
   the core never enters a low-power state) or sleeps in a C-state
   behind an interrupt, "at the cost of some additional latency"
   (§4.3).  This table quantifies that trade-off: server power and
   energy per message across load levels, polling vs interrupt mode. *)
let active_w_per_core = 25.5
let idle_w_per_core = 8.0

let energy ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  let point ~polling ~sessions =
    run_echo ~output
      ~label:(if polling then "IX-poll" else "IX-intr")
      ~polling ~sessions ~kind:Cluster.Ix ~ports:1 ~cores:4 ~msg_size:64
      ~msgs_per_conn:64 ()
  in
  let rows =
    par_map ~jobs
      (List.concat_map
         (fun sessions ->
           List.map
             (fun polling () ->
               let p = point ~polling ~sessions in
               let util = Float.min 1.0 p.cpu_utilization in
            let watts =
              if polling then float_of_int p.cores *. active_w_per_core
              else
                float_of_int p.cores
                *. ((util *. active_w_per_core) +. ((1. -. util) *. idle_w_per_core))
            in
            let uj_per_msg =
              if p.msgs_per_sec <= 0. then 0. else watts /. p.msgs_per_sec *. 1e6
            in
               [
                 string_of_int sessions;
                 p.label;
                 Report.mps p.msgs_per_sec;
                 Report.us p.p99_us;
                 Report.pct util;
                 Printf.sprintf "%.0f" watts;
                 Printf.sprintf "%.2f" uj_per_msg;
               ])
             [ true; false ])
         [ 8; 96; 768 ])
  in
  Report.table
    ~title:
      "Energy proportionality (extension, §4.3): polling vs interrupt-driven IX (4 cores)"
    ~headers:[ "sessions"; "mode"; "msgs/s"; "p99 us"; "cpu util"; "watts"; "uJ/msg" ]
    rows

(* ------------------------------------------------------------------ *)
(* Elastic core scaling (tentpole experiment, DESIGN.md §8)            *)

type elastic_result = {
  el_samples : Ix_core.Elastic.sample list;
  el_decisions : Ix_core.Elastic.decision list;
  el_peak_cores : int;
  el_final_cores : int;
  el_migrations : int;
  el_parked_frames : int;
  el_slo_p99_us : float;
  el_burst_breaches : int;
  el_energy_j : float;
  el_static_energy_j : float;
  el_msgs : int;
}

(* A bursty load trace against one IX host with [capacity] provisioned
   dataplanes, starting on a single live core: a light base load runs
   for the whole trace, then a burst of closed-loop sessions arrives
   for the middle third.  The {!Ix_core.Elastic} loop watches
   utilization plus a client-side windowed p99 probe and walks the
   core count up into the burst and back down after it — every scale
   decision is a set of no-drop flow-group migrations.  Reports the
   cores-used curve, SLO hold, migration counts and the energy saved
   vs statically provisioning all [capacity] cores. *)
let elastic_scaling ?(output = default_output) ?(seed = 42) () =
  let capacity = 4 in
  let server = Cluster.server_spec ~threads:capacity ~nic_ports:1 Cluster.Ix in
  let cluster = Cluster.build ~seed ~client_hosts:4 ~client_threads:4 ~server () in
  let host = Option.get cluster.Cluster.server_ix in
  let cp = Ix_core.Control_plane.create host in
  (* Start small: one live core; the rest is parked capacity. *)
  Ix_core.Control_plane.set_elastic_threads cp 1;
  Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size:64 ~app_ns:150;
  let stats = Apps.Echo.new_stats () in
  let all_latency = Ixtelemetry.Log_hist.create () in
  (* The probe drains the client latency histogram every controller
     interval, turning it into a per-interval window; the drained
     samples accumulate into [all_latency] for the end-of-run numbers. *)
  let p99_probe () =
    if Ixtelemetry.Log_hist.is_empty stats.Apps.Echo.latency then None
    else begin
      let p = Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99. in
      Ixtelemetry.Log_hist.merge_into ~src:stats.Apps.Echo.latency ~dst:all_latency;
      Ixtelemetry.Log_hist.clear stats.Apps.Echo.latency;
      Some (float_of_int p)
    end
  in
  let config =
    { Ix_core.Elastic.default_config with Ix_core.Elastic.max_cores = capacity }
  in
  let el =
    Ix_core.Elastic.start ~sim:cluster.Cluster.sim ~cp ~config ~p99_probe ()
  in
  let phase = Engine.Sim_time.ms (scaled_ms 4) in
  let stop_after = 3 * phase in
  let clients = Array.of_list cluster.Cluster.clients in
  let spawn ~at ~until ~sessions ~offset =
    for s = 0 to sessions - 1 do
      let i = offset + s in
      let client = clients.(i mod Array.length clients) in
      let thread = i / Array.length clients mod 4 in
      ignore
        (Sim.at cluster.Cluster.sim
           (at + (s * 2_000))
           (fun () ->
             Apps.Echo.client client
               ~now:(Cluster.now cluster)
               ~thread ~server_ip:cluster.Cluster.server_ip ~port:7000
               ~msg_size:64 ~msgs_per_conn:64 ~stats ~stop_after:until))
    done
  in
  spawn ~at:0 ~until:stop_after ~sessions:6 ~offset:0;
  spawn ~at:phase ~until:(2 * phase) ~sessions:56 ~offset:6;
  Sim.run ~until:stop_after cluster.Cluster.sim;
  Ix_core.Elastic.stop el;
  let samples = Ix_core.Elastic.samples el in
  let decisions = Ix_core.Elastic.decisions el in
  let slo_us = config.Ix_core.Elastic.slo_p99_ns /. 1e3 in
  let peak =
    List.fold_left (fun acc s -> max acc s.Ix_core.Elastic.cores) 1 samples
  in
  (* SLO hold over the burst: count windows inside the burst phase,
     after the controller has had one hysteresis period to react, whose
     windowed p99 still exceeded the target. *)
  let settle =
    config.Ix_core.Elastic.interval_ns * config.Ix_core.Elastic.settle_checks
  in
  let breaches =
    List.length
      (List.filter
         (fun s ->
           s.Ix_core.Elastic.at_ns > phase + (2 * settle)
           && s.Ix_core.Elastic.at_ns <= 2 * phase
           && (not (Float.is_nan s.Ix_core.Elastic.p99_ns))
           && s.Ix_core.Elastic.p99_ns > config.Ix_core.Elastic.slo_p99_ns)
         samples)
  in
  let energy_j =
    Ix_core.Elastic.energy_joules el ~capacity ~active_w:active_w_per_core
      ~idle_w:idle_w_per_core
  in
  let static_energy_j =
    float_of_int capacity *. active_w_per_core
    *. Engine.Sim_time.to_float_s stop_after
  in
  let stride = max 1 (List.length samples / 16) in
  let rows =
    List.filteri (fun i _ -> i mod stride = 0 || i = List.length samples - 1)
      samples
    |> List.map (fun s ->
           [
             Printf.sprintf "%.0f" (float_of_int s.Ix_core.Elastic.at_ns /. 1e3);
             string_of_int s.Ix_core.Elastic.cores;
             Report.pct s.Ix_core.Elastic.util;
             (if Float.is_nan s.Ix_core.Elastic.p99_ns then "-"
              else Report.us (s.Ix_core.Elastic.p99_ns /. 1e3));
           ])
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Elastic scaling (burst trace, %d-core capacity, %.0f us p99 SLO)"
         capacity slo_us)
    ~headers:[ "t us"; "cores"; "util"; "p99 us" ]
    rows;
  let r =
    {
      el_samples = samples;
      el_decisions = decisions;
      el_peak_cores = peak;
      el_final_cores = Ix_core.Control_plane.active_threads cp;
      el_migrations = Ix_core.Control_plane.migrations_completed cp;
      el_parked_frames =
        Metrics.counter_value (Ix_core.Ix_host.metrics host) "cp.parked_frames";
      el_slo_p99_us = slo_us;
      el_burst_breaches = breaches;
      el_energy_j = energy_j;
      el_static_energy_j = static_energy_j;
      el_msgs = stats.Apps.Echo.messages;
    }
  in
  Report.table ~title:"Elastic scaling: summary"
    ~headers:[ "metric"; "value" ]
    [
      [ "scale decisions"; string_of_int (List.length r.el_decisions) ];
      [ "peak cores"; string_of_int r.el_peak_cores ];
      [ "final cores"; string_of_int r.el_final_cores ];
      [ "flow-group migrations"; string_of_int r.el_migrations ];
      [ "frames parked (all replayed)"; string_of_int r.el_parked_frames ];
      [ "burst windows over SLO (post-settle)"; string_of_int r.el_burst_breaches ];
      [ "messages echoed"; string_of_int r.el_msgs ];
      [ "energy (elastic)"; Printf.sprintf "%.3f J" r.el_energy_j ];
      [ "energy (static 4 cores)"; Printf.sprintf "%.3f J" r.el_static_energy_j ];
    ];
  emit_server_stats ~output ~label:"elastic scaling" cluster;
  r

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablations ?(output = default_output) ?(jobs = default_jobs ()) () =
  let jobs = resolve_jobs ~output jobs in
  (* Each configuration runs twice: fully loaded (throughput, loaded
     p99) and nearly unloaded (path latency). *)
  let run ?(zero_copy = true) ?(polling = true) ?(batch_bound = 64)
      ?(uncoalesced_pcie = false) label () =
    (* The PCIe model is mutable per run; build a fresh one inside the
       task so concurrent configurations never share it. *)
    let pcie () =
      if uncoalesced_pcie then Some (Ixhw.Pcie_model.create ~replenish_batch:1 ())
      else None
    in
    let loaded =
      run_echo ~output ~label ?pcie:(pcie ()) ~zero_copy ~polling ~batch_bound
        ~kind:Cluster.Ix ~ports:1 ~cores:4 ~msg_size:64 ~msgs_per_conn:64 ()
    in
    let unloaded =
      run_echo ~output ~label ?pcie:(pcie ()) ~zero_copy ~polling ~batch_bound
        ~sessions:8 ~kind:Cluster.Ix ~ports:1 ~cores:4 ~msg_size:64
        ~msgs_per_conn:64 ()
    in
    (loaded, unloaded)
  in
  let points =
    par_map ~jobs
      [
        run "IX baseline";
        run ~batch_bound:1 "batch bound B=1";
        run ~polling:false "interrupts (no polling)";
        run ~zero_copy:false "copying API (no zero-copy)";
        run ~uncoalesced_pcie:true "uncoalesced PCIe doorbells";
      ]
  in
  let rows =
    List.map
      (fun (loaded, unloaded) ->
        [
          loaded.label;
          Report.mps loaded.msgs_per_sec;
          Report.us loaded.p99_us;
          Report.us unloaded.p99_us;
        ])
      points
  in
  Report.table ~title:"Ablations (64B echo, n=64, 4 cores, 10GbE)"
    ~headers:[ "configuration"; "msgs/s"; "loaded p99 us"; "unloaded p99 us" ]
    rows

(* ------------------------------------------------------------------ *)
(* Perf regression slices (bench/main.exe perf)                        *)

(* Fixed-seed single points of the heaviest experiments, instrumented
   with the engine's global event meter.  The snapshot string captures
   every metric the slice produces at full precision: the same seed
   must reproduce it bit-for-bit, which is what lets BENCH_PERF.json
   track pure engine speed without re-validating model behaviour. *)
type perf_slice = {
  perf_name : string;
  perf_events : int;  (** sim events executed by the slice *)
  perf_snapshot : string;  (** full-precision metric snapshot *)
  perf_fast_hits : int;  (** header-prediction fast-path deliveries *)
  perf_slow_hits : int;  (** segments that took the full TCP input path *)
}

(* [perf_events] is a delta of the engine-wide event meter, so it is
   only meaningful when nothing else simulates concurrently; the bench
   harness meters slices sequentially and reuses those counts when it
   re-runs the same slices on a domain pool (where only the snapshots
   are compared). *)
(* The hit counters ride alongside the snapshot (never inside it): a
   fast-path-off run must produce a bit-identical snapshot, which is
   the regression proof that header prediction is a pure optimization. *)
let metered ?hits name f =
  let e0 = Sim.global_events () in
  let snapshot = f () in
  let fast, slow = match hits with None -> (0, 0) | Some (f, s) -> (!f, !s) in
  {
    perf_name = name;
    perf_events = Sim.global_events () - e0;
    perf_snapshot = snapshot;
    perf_fast_hits = fast;
    perf_slow_hits = slow;
  }

let perf_fig2_slice ?(fast_path = true) ?(sizes = [ 1_024; 16_384; 65_536 ]) ()
    =
  let fh = ref 0 and sh = ref 0 in
  metered ~hits:(fh, sh) "fig2" (fun () ->
      String.concat " "
        (List.map
           (fun size ->
             let p =
               netpipe_once ~fast_path ~hits:(fh, sh) ~kind:Cluster.Ix ~size ()
             in
             Printf.sprintf "s%d:one_way_us=%.17g,gbps=%.17g" size p.one_way_us
               p.gbps)
           sizes))

let perf_fig4_slice ?(fast_path = true) ?(conns = 10_000) () =
  let fh = ref 0 and sh = ref 0 in
  metered ~hits:(fh, sh) "fig4" (fun () ->
      let rate =
        run_connection_scaling ~fast_path ~hits:(fh, sh) ~kind:Cluster.Ix
          ~conns ~workers:384 ()
      in
      Printf.sprintf "msgs_per_sec=%.17g" rate)

let perf_fig5_slice ?(fast_path = true) ?(target_krps = 500.) () =
  let fh = ref 0 and sh = ref 0 in
  metered ~hits:(fh, sh) "fig5" (fun () ->
      let r, kshare =
        run_memcached ~fast_path ~hits:(fh, sh) ~kind:Cluster.Ix
          ~server_threads:6 ~profile:Workloads.Size_dist.usr
          ~target_rps:(target_krps *. 1e3) ()
      in
      Printf.sprintf "achieved_rps=%.17g avg_us=%.17g p99_us=%.17g kernel_share=%.17g"
        r.Workloads.Mutilate.achieved_rps r.Workloads.Mutilate.avg_us
        r.Workloads.Mutilate.p99_us kshare)

(* [msgs_per_conn:8] where the figure sweep uses 1: at n=1 every
   connection contributes mostly handshake/teardown segments, which
   legitimately belong to the slow path, so the slice's fast-path ratio
   sat around 0.20 no matter how well header prediction did — the
   number measured connection arithmetic, not the fast path.  (The
   original suspicion, per-core scratch-record contention, was wrong:
   the decode scratch is per-endpoint and never contended.)  Eight
   messages per connection keeps the handshake share under ~1/4 and
   makes the ratio track actual steady-state delivery; the figure
   sweeps keep n=1, faithful to the paper's connection-churn plot. *)
let perf_fig3a_slice ?(fast_path = true) () =
  let fh = ref 0 and sh = ref 0 in
  metered ~hits:(fh, sh) "fig3a-sim" (fun () ->
      String.concat " "
        (List.map
           (fun cores ->
             let p =
               run_echo ~fast_path ~hits:(fh, sh) ~label:"IX-10G"
                 ~client_hosts:4 ~client_threads:8 ~sessions:256
                 ~kind:Cluster.Ix ~ports:1 ~cores ~msg_size:64
                 ~msgs_per_conn:8 ()
             in
             Printf.sprintf "c%d:msgs_per_sec=%.17g,p99_us=%.17g" cores
               p.msgs_per_sec p.p99_us)
           [ 1; 2; 4 ]))

(* The million-connection churn workload is self-clocked rather than
   Sim-driven, so it is metered by its own crafted-segment count: every
   client segment is one trip through the endpoint's demux, which is
   the unit of work this slice prices.  The snapshot reuses the
   workload's own deterministic counter string (no memory or wall
   numbers — those go through the separate gate path). *)
let perf_conn_scale_slice ?(fast_path = true) ?(conns = 20_000)
    ?(events = 40_000) () =
  let r =
    Workloads.Conn_scale.run ~fast_path ~syn_cookies:true ~conns ~events ()
  in
  {
    perf_name = "conn-scale";
    perf_events = r.Workloads.Conn_scale.r_client_segs;
    perf_snapshot = r.Workloads.Conn_scale.r_snapshot;
    perf_fast_hits = r.Workloads.Conn_scale.r_fast_hits;
    perf_slow_hits = r.Workloads.Conn_scale.r_slow_hits;
  }

(* Two full rebalances under live echo load: shrink the dataplane to 2
   cores mid-run, then grow back to 4 — every flow group migrates
   twice, with frames in flight.  The snapshot pins the migration
   count, the parked-frame count and the cumulative retarget-to-handover
   latency; the message count proves traffic kept flowing. *)
let perf_migration_slice ?(fast_path = true) () =
  metered "migration" (fun () ->
      let server =
        Cluster.server_spec ~threads:4 ~nic_ports:1
          ?tcp_config:(tcp_override ~fast_path Cluster.Ix)
          Cluster.Ix
      in
      let cluster =
        Cluster.build ~client_hosts:2 ~client_threads:4
          ?client_tcp_config:(tcp_override ~fast_path Cluster.Linux)
          ~server ()
      in
      let host = Option.get cluster.Cluster.server_ix in
      let cp = Ix_core.Control_plane.create host in
      Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size:64
        ~app_ns:150;
      let stats = Apps.Echo.new_stats () in
      let stop_after = Engine.Sim_time.ms 6 in
      let clients = Array.of_list cluster.Cluster.clients in
      for s = 0 to 31 do
        let client = clients.(s mod Array.length clients) in
        let thread = s / Array.length clients mod 4 in
        ignore
          (Sim.at cluster.Cluster.sim (s * 2_000) (fun () ->
               Apps.Echo.client client
                 ~now:(Cluster.now cluster)
                 ~thread ~server_ip:cluster.Cluster.server_ip ~port:7000
                 ~msg_size:64 ~msgs_per_conn:64 ~stats ~stop_after))
      done;
      ignore
        (Sim.at cluster.Cluster.sim (Engine.Sim_time.ms 2) (fun () ->
             Ix_core.Control_plane.set_elastic_threads cp 2));
      ignore
        (Sim.at cluster.Cluster.sim (Engine.Sim_time.ms 4) (fun () ->
             Ix_core.Control_plane.set_elastic_threads cp 4));
      Sim.run ~until:stop_after cluster.Cluster.sim;
      Printf.sprintf
        "migrations=%d parked_frames=%d total_migration_ns=%d \
         rss_retargets=%d msgs=%d"
        (Ix_core.Control_plane.migrations_completed cp)
        (Metrics.counter_value (Ix_core.Ix_host.metrics host) "cp.parked_frames")
        (Ix_core.Control_plane.total_migration_ns cp)
        (Array.fold_left
           (fun acc nic -> acc + Ixhw.Nic.rss_retargets nic)
           0 cluster.Cluster.server_nics)
        stats.Apps.Echo.messages)

(* The batch-sweep slice pins one point per sweep config — fixed
   B=1/B=64 and the adaptive controller — including the batch
   telemetry (mean admitted batch, mean TX burst, bound in effect) the
   dataplane also publishes as gauges.  The telemetry is part of the
   snapshot on purpose: the batch controller is driven only by the
   deterministic next_batch call stream, so these values must
   reproduce bit-for-bit, and the adaptive row's [bound] pins that the
   controller actually moved. *)
let perf_batch_sweep_slice ?(fast_path = true) ?(client_hosts = 4)
    ?(client_threads = 8) ?(sessions = 256) () =
  let fh = ref 0 and sh = ref 0 in
  metered ~hits:(fh, sh) "batch-sweep" (fun () ->
      String.concat " "
        (List.map
           (fun (key, bound, mode) ->
             let stats = ref (0., 0., 0) in
             let p =
               run_echo ~fast_path ~hits:(fh, sh) ~label:key ~client_hosts
                 ~client_threads ~sessions ~kind:Cluster.Ix ~ports:1 ~cores:2
                 ~msg_size:64 ~msgs_per_conn:8 ~batch_bound:bound
                 ~batch_mode:mode ~batch_stats:stats ()
             in
             let mean_batch, mean_tx, bound_end = !stats in
             Printf.sprintf
               "%s:msgs_per_sec=%.17g,p99_us=%.17g,mean_batch=%.17g,\
                mean_tx_burst=%.17g,bound=%d"
               key p.msgs_per_sec p.p99_us mean_batch mean_tx bound_end)
           [
             ("b1", 1, Ix_core.Batch.Fixed);
             ("b64", 64, Ix_core.Batch.Fixed);
             ("adaptive", 8, Ix_core.Batch.Adaptive { floor = 1; ceiling = 64 });
           ]))

(* ------------------------------------------------------------------ *)
(* Chaos soak (robustness): ixsim chaos / bench chaos leg              *)

(* Legs are self-contained simulations, so they fan over the same
   domain pool as the figure sweeps; a leg's snapshot is bit-identical
   at any [jobs] width, which test_faults asserts. *)
let chaos ?(jobs = default_jobs ()) ?(seed = 42)
    ?(spec = Ix_faults.Fault_plan.default) ?(soak_ms = 8) ?(echo_legs = 3)
    ?(quiet = false) () =
  Chaos.run ~jobs ~seed ~spec ~soak_ms ~echo_legs ~quiet ()

let run_all ?(output = default_output) ?(jobs = default_jobs ()) () =
  ignore (fig2 ~jobs ());
  ignore (fig3a ~output ~jobs ());
  ignore (fig3a_sim ~output ~jobs ());
  ignore (fig3b ~output ~jobs ());
  ignore (fig3c ~output ~jobs ());
  ignore (fig4 ~jobs ());
  let f5 = fig5 ~output ~jobs () in
  ignore (fig6 ~output ~jobs ());
  ignore (batch_sweep ~output ~jobs ());
  table2 ~output ~jobs f5;
  ablations ~output ~jobs ();
  incast ~jobs ();
  energy ~output ~jobs ();
  ignore (elastic_scaling ~output ())


(* TEMPORARY instrumentation - removed before commit *)