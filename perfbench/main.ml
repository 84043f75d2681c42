(* The repository benchmark: one named workload, run as repeated fresh
   simulations ("legs") in this one process and one domain.

   Untraced runs report host-time end-to-end metrics of the simulator.
   Traced runs ([--trace 1]) interleave untraced legs with legs whose
   calls into each library sit inside spans, then run per-layer
   micro-probes, and report per-layer metrics.  Every leg is checked:
   same-seed determinism against the first leg, counter invariants,
   and, at the default seed, the pinned simulated outputs kept in
   [golden/].  README.md maps each metric to its layer and workload. *)

module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Rng = Engine.Rng
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Cluster = Harness.Cluster
module Wheel = Timerwheel.Timer_wheel
module Conn_scale = Workloads.Conn_scale

external now_ns : unit -> (int[@untagged]) = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

let default_seed = 42

(* The minor heap bench/main.exe and bin/ixsim.exe run with. *)
let minor_heap_words = 4 * 1024 * 1024

let s_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Host-time spans around the benchmark's calls into each layer.  A
   span's self time is its duration minus the time of the spans nested
   in it, so [Engine] self time is the simulation loop with every app
   handler and app-to-stack call taken out.  Spans are kept in memory
   (up to [retain_cap]) and written as Chrome trace_event JSON at
   exit. *)
module Span = struct
  type kind =
    | Build  (** Cluster.build *)
    | Preload  (** Keygen.preload into the KV store *)
    | Engine  (** Sim.run / Mutilate.run: the simulation loop *)
    | Handler  (** app code: handlers, acceptors, run_app closures *)
    | Stack_call  (** app -> stack: connect, listen, run_app, send, close *)
    | Establish  (** Conn_scale.run with no churn events *)
    | Churn  (** Conn_scale.run *)
    | Flood  (** Conn_scale.syn_flood *)

  let kinds =
    [| Build; Preload; Engine; Handler; Stack_call; Establish; Churn; Flood |]

  let index = function
    | Build -> 0
    | Preload -> 1
    | Engine -> 2
    | Handler -> 3
    | Stack_call -> 4
    | Establish -> 5
    | Churn -> 6
    | Flood -> 7

  let name = function
    | Build -> "cluster.build"
    | Preload -> "keygen.preload"
    | Engine -> "sim.run"
    | Handler -> "app.handler"
    | Stack_call -> "app.stack_call"
    | Establish -> "conn_scale.establish"
    | Churn -> "conn_scale.run"
    | Flood -> "conn_scale.syn_flood"

  let self_ns = Array.make (Array.length kinds) 0
  let max_depth = 256
  let st_kind = Array.make max_depth 0
  let st_start = Array.make max_depth 0
  let st_child = Array.make max_depth 0
  let depth = ref 0
  let retain = ref false
  let retain_cap = 200_000
  let r_kind = Array.make retain_cap 0
  let r_start = Array.make retain_cap 0
  let r_dur = Array.make retain_cap 0
  let retained = ref 0
  let dropped = ref 0
  let origin = now_ns ()

  let reset () = Array.fill self_ns 0 (Array.length self_ns) 0

  let run kind f =
    let d = !depth in
    st_kind.(d) <- index kind;
    st_child.(d) <- 0;
    depth := d + 1;
    st_start.(d) <- now_ns ();
    let leave () =
      let dur = now_ns () - st_start.(d) in
      depth := d;
      let k = st_kind.(d) in
      self_ns.(k) <- self_ns.(k) + dur - st_child.(d);
      if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
      if !retain then
        if !retained < retain_cap then begin
          let i = !retained in
          r_kind.(i) <- k;
          r_start.(i) <- st_start.(d) - origin;
          r_dur.(i) <- dur;
          retained := i + 1
        end
        else incr dropped
    in
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e

  (* Same shape as the simulator's own [--trace] output (µs, "ph":"X"),
     sorted by start so per-thread timestamps never go backwards. *)
  let write_chrome path =
    let order = Array.init !retained Fun.id in
    Array.stable_sort (fun a b -> compare r_start.(a) r_start.(b)) order;
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    Array.iteri
      (fun j i ->
        if j > 0 then output_char oc ',';
        Printf.fprintf oc
          "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}"
          (name kinds.(r_kind.(i)))
          (float_of_int r_start.(i) /. 1e3)
          (Float.max 0.001 (float_of_int r_dur.(i) /. 1e3)))
      order;
    output_string oc "]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Traced stack records                                                *)

(* Wrap the [Net_api.stack] records the benchmark hands to Apps and
   Workloads, so app code runs inside [Handler] spans and every call
   from the app into the stack inside a [Stack_call] span.  Wrapping
   changes no simulated behaviour: the traced run asserts its
   simulated outputs equal the untraced run's byte for byte. *)
let traced_conn (c : Net_api.conn) =
  {
    c with
    Net_api.send = (fun s -> Span.run Span.Stack_call (fun () -> c.Net_api.send s));
    close = (fun () -> Span.run Span.Stack_call c.Net_api.close);
    abort = (fun () -> Span.run Span.Stack_call c.Net_api.abort);
  }

let traced_handlers (h : Net_api.handlers) =
  {
    Net_api.on_connected =
      (fun c ~ok ->
        Span.run Span.Handler (fun () -> h.Net_api.on_connected (traced_conn c) ~ok));
    on_data =
      (fun c s -> Span.run Span.Handler (fun () -> h.Net_api.on_data (traced_conn c) s));
    on_sent =
      (fun c n -> Span.run Span.Handler (fun () -> h.Net_api.on_sent (traced_conn c) n));
    on_closed =
      (fun c r ->
        Span.run Span.Handler (fun () -> h.Net_api.on_closed (traced_conn c) r));
  }

let traced_stack (s : Net_api.stack) =
  {
    s with
    Net_api.connect =
      (fun ~thread ~ip ~port h ->
        Span.run Span.Stack_call (fun () ->
            s.Net_api.connect ~thread ~ip ~port (traced_handlers h)));
    listen =
      (fun ~port acceptor ->
        Span.run Span.Stack_call (fun () ->
            s.Net_api.listen ~port (fun ~thread c ->
                traced_handlers
                  (Span.run Span.Handler (fun () -> acceptor ~thread (traced_conn c))))));
    run_app =
      (fun ~thread f ->
        Span.run Span.Stack_call (fun () ->
            s.Net_api.run_app ~thread (fun () -> Span.run Span.Handler f)));
  }

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)

type facts = {
  events : int;
      (** units of work: simulated events (sampler ticks excluded), or
          crafted segments for conn-churn *)
  pinned : (string * string) list;
      (** simulated outputs at full precision — compared with the
          golden at the default seed *)
  counts : (string * string) list;
      (** deterministic program counters a faster program may change
          (event counts, timer-wheel work, fast-path hits) *)
  measured : (string * float) list;
      (** program-dependent values that are not deterministic text *)
  problems : string list;  (** failed counter checks *)
}

type leg = {
  traced : bool;
  leg_ns : int;
  setup_ns : int;
  speed : float;
      (** host speed around the leg: [reference_nominal_s] over the
          reference loop's mean time just before and just after it;
          host seconds times [speed] are seconds at nominal speed *)
  self_ns : int array;
  work_words : float;  (** minor words allocated inside the work spans *)
  minor_collections : int;
  major_collections : int;
  major_words : float;
  facts : facts;
}

let setup_acc = ref 0
let work_words = ref 0.

(* Time [f] as set-up: host work before the leg's first simulated
   event. *)
let setup f =
  let t = now_ns () in
  let v = f () in
  setup_acc := !setup_acc + (now_ns () - t);
  v

(* Run [f] as the leg's simulated work, counting its minor words. *)
let work kind f =
  Span.run kind (fun () ->
      let w = Gc.minor_words () in
      let v = f () in
      work_words := !work_words +. (Gc.minor_words () -. w);
      v)

(* [body] does the leg's host work and returns a reader for its
   results; the leg's time ends when [body] returns. *)
let framed ~traced body =
  Span.reset ();
  Span.retain := traced;
  setup_acc := 0;
  work_words := 0.;
  (* Words come from Gc.minor_words/Gc.counters: quick_stat's word
     counters only move at collections, which the 4 M-word minor heap
     makes rare.  Its collection counts are exact. *)
  let q0 = Gc.quick_stat () in
  let _, _, maj0 = Gc.counters () in
  let t0 = now_ns () in
  let read = body () in
  let t1 = now_ns () in
  let q1 = Gc.quick_stat () in
  let _, _, maj1 = Gc.counters () in
  Span.retain := false;
  let self_ns = Array.copy Span.self_ns in
  {
    traced;
    leg_ns = t1 - t0;
    setup_ns = !setup_acc;
    speed = 1.;
    self_ns;
    work_words = !work_words;
    minor_collections = q1.Gc.minor_collections - q0.Gc.minor_collections;
    major_collections = q1.Gc.major_collections - q0.Gc.major_collections;
    major_words = maj1 -. maj0;
    facts = read ();
  }

let int_fact name n = (name, string_of_int n)
let float_fact name x = (name, Printf.sprintf "%.17g" x)

(* Sum the counters [<prefix>.<n>.<field>] of a stack's registry over
   every per-core instance [n]. *)
let sum_counters snap ~prefix ~field =
  List.fold_left
    (fun acc (name, v) ->
      match (String.split_on_char '.' name, v) with
      | [ p; _; f ], Metrics.Counter n when p = prefix && f = field -> acc + n
      | _ -> acc)
    0 snap

let doorbells snap =
  List.fold_left
    (fun acc (name, v) ->
      match (String.split_on_char '.' name, v) with
      | [ "nic"; _; _; "doorbells" ], Metrics.Counter n -> acc + n
      | _ -> acc)
    0 snap

(* Server-side facts any of the three stacks publishes, suffixed with
   the stack name when a leg runs more than one. *)
let server_facts ?(suffix = "") (cluster : Cluster.t) =
  let snap = cluster.Cluster.server.Net_api.metrics () in
  let nics = cluster.Cluster.server_nics in
  let nic f = Array.fold_left (fun acc n -> acc + f n) 0 nics in
  let ce, tail = Cluster.server_link_stats cluster in
  let tcp field = sum_counters snap ~prefix:"tcp" ~field in
  let n name = name ^ suffix in
  ( [
      int_fact (n "hw.nic.rx_frames") (nic Ixhw.Nic.rx_frames);
      int_fact (n "hw.nic.tx_frames") (nic Ixhw.Nic.tx_frames);
      int_fact (n "hw.nic.rx_drops") (nic Ixhw.Nic.rx_drops);
      int_fact (n "hw.nic.doorbells") (doorbells snap);
      int_fact (n "hw.switch.ce_marks") ce;
      int_fact (n "hw.switch.tail_drops") tail;
      int_fact (n "tcp.rx_segs") (tcp "rx_segs");
      int_fact (n "tcp.accepts") (tcp "accepts");
      int_fact (n "tcp.rsts") (tcp "rsts");
      int_fact (n "tcp.closed_timeout") (tcp "closed_timeout");
      int_fact (n "tcp.closed_reset") (tcp "closed_reset");
      int_fact (n "tcp.closed_normal") (tcp "closed_normal");
      int_fact (n "tcp.syn_cookies_validated") (tcp "syn_cookies_validated");
      int_fact (n "tcp.tw_reacks") (tcp "tw_reacks");
      int_fact (n "server.rx_csum_drops")
        (sum_counters snap ~prefix:"dataplane" ~field:"rx_csum_drops");
      int_fact (n "server.app_faults")
        (sum_counters snap ~prefix:"dataplane" ~field:"app_faults");
      float_fact (n "server.kernel_share") (Net_api.kernel_share cluster.Cluster.server);
      int_fact (n "server.busy_ns") (Net_api.busy_ns cluster.Cluster.server);
    ],
    [
      int_fact (n "tcp.fast_path_hits") (tcp "fast_path_hits");
      int_fact (n "tcp.slow_path_hits") (tcp "slow_path_hits");
    ] )

let zero_checks facts =
  List.filter_map
    (fun (name, v) ->
      let watched =
        List.exists
          (fun p -> String.starts_with ~prefix:p name)
          [
            "tcp.rsts"; "tcp.closed_timeout"; "server.rx_csum_drops";
            "server.app_faults"; "echo.connect_failures";
          ]
      in
      if watched && v <> "0" then Some (Printf.sprintf "%s = %s, expected 0" name v)
      else None)
    facts

(* IX-only internals: the dataplanes' batchers, timer wheels, TCB
   stores and the Table-2 cycle tracers. *)
let ix_facts host ~per =
  let sum f =
    let acc = ref 0 in
    Ix_core.Ix_host.iter_threads host (fun dp -> acc := !acc + f dp);
    !acc
  in
  let batch f = sum (fun dp -> f (Ix_core.Dataplane.batcher dp)) in
  let mean num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let wheel f =
    sum (fun dp ->
        let env = Ixtcp.Tcp_endpoint.env (Ix_core.Dataplane.endpoint dp) in
        f (Wheel.stats env.Ixtcp.Tcb.wheel))
  in
  let stages =
    List.map
      (fun stage ->
        let ns =
          List.fold_left
            (fun acc tr ->
              match
                List.find_opt (fun (s, _, _) -> s = stage) (Tracer.breakdown tr)
              with
              | Some (_, ns, _) -> acc + ns
              | None -> acc)
            0 (Ix_core.Ix_host.tracers host)
        in
        float_fact
          ("core.sim_ns_per_msg." ^ Tracer.stage_name stage)
          (mean ns per))
      Tracer.stages
  in
  ( [
      float_fact "core.batch_mean"
        (mean (batch Ix_core.Batch.packets) (batch Ix_core.Batch.cycles));
      float_fact "core.tx_burst_mean"
        (mean (batch Ix_core.Batch.tx_packets) (batch Ix_core.Batch.tx_bursts));
      int_fact "core.cycles" (sum Ix_core.Dataplane.cycles_run);
      int_fact "core.syscalls" (sum Ix_core.Dataplane.syscalls_processed);
      float_fact "core.kernel_share" (Ix_core.Ix_host.kernel_share host);
      int_fact "tcp.store_live"
        (sum (fun dp ->
             Ixtcp.Tcb.store_live
               (Ixtcp.Tcp_endpoint.env (Ix_core.Dataplane.endpoint dp)).Ixtcp.Tcb.store));
    ]
    @ stages,
    [
      int_fact "timerwheel.scheduled" (wheel (fun s -> s.Wheel.scheduled));
      int_fact "timerwheel.fired" (wheel (fun s -> s.Wheel.fired));
      int_fact "timerwheel.cancelled" (wheel (fun s -> s.Wheel.cancelled));
      int_fact "timerwheel.cascades" (wheel (fun s -> s.Wheel.cascades));
      int_fact "timerwheel.max_armed" (wheel (fun s -> s.Wheel.max_armed));
    ] )

(* Benchmark-scheduled simulated-time sampler of the server's NIC RX
   ring occupancy (traced legs only).  It reads ring counters and
   nothing else; its own events are subtracted from the event count. *)
type ring_sampler = { mutable ticks : int; mutable sum : int; mutable max : int }

let ring_period = Sim_time.us 5

let start_ring_sampler sim nics =
  let r = { ticks = 0; sum = 0; max = 0 } in
  let rec tick () =
    let depth = ref 0 in
    Array.iter
      (fun nic ->
        Ixhw.Nic.iter_queues nic (fun q -> depth := !depth + Ixhw.Nic.rx_pending q))
      nics;
    r.ticks <- r.ticks + 1;
    r.sum <- r.sum + !depth;
    if !depth > r.max then r.max <- !depth;
    ignore (Sim.after sim ring_period tick)
  in
  ignore (Sim.after sim ring_period tick);
  r

let ring_measures rings =
  let ticks = List.fold_left (fun a r -> a + r.ticks) 0 rings in
  if ticks = 0 then []
  else
    [
      ( "hw.rx_ring_depth.mean",
        float_of_int (List.fold_left (fun a r -> a + r.sum) 0 rings)
        /. float_of_int ticks );
      ( "hw.rx_ring_depth.max",
        float_of_int (List.fold_left (fun a r -> max a r.max) 0 rings) );
    ]

(* ---- echo-ix ------------------------------------------------------ *)

(* The fig3a-sim point at 4 cores with 1024 sessions of 8 x 64 B
   messages per connection, from 4 Linux client hosts x 8 threads. *)
let echo_cores = 4
let echo_sessions = 1024
let echo_client_hosts = 4
let echo_client_threads = 8
let echo_msg_size = 64
let echo_msgs_per_conn = 8
let echo_warmup = Sim_time.ms 4
let echo_measure = Sim_time.ms 4

let echo_leg ~traced ~seed =
  framed ~traced (fun () ->
      let wrap = if traced then traced_stack else Fun.id in
      let app f = if traced then Span.run Span.Handler f else f () in
      let cluster, stats =
        setup (fun () ->
            let cluster =
              Span.run Span.Build (fun () ->
                  Cluster.build ~seed ~client_hosts:echo_client_hosts
                    ~client_threads:echo_client_threads
                    ~server:
                      (Cluster.server_spec ~threads:echo_cores ~nic_ports:1
                         Cluster.Ix)
                    ())
            in
            app (fun () ->
                Apps.Echo.server (wrap cluster.Cluster.server) ~port:7000
                  ~msg_size:echo_msg_size ~app_ns:150);
            let stats = Apps.Echo.new_stats () in
            let clients = Array.of_list (List.map wrap cluster.Cluster.clients) in
            let stop_after = echo_warmup + echo_measure in
            (* Ramp sessions over the first half of the warm-up, as
               Experiments.run_echo does, each at a seeded offset within
               its slot: the seed is what makes one leg's inputs differ
               from another's (the closed loop itself draws no random
               numbers). *)
            let spacing = max 1 (echo_warmup / (2 * echo_sessions)) in
            let rng = Rng.create ~seed in
            for s = 0 to echo_sessions - 1 do
              let client = clients.(s mod Array.length clients) in
              let thread = s / Array.length clients mod echo_client_threads in
              let start = (s * spacing) + Rng.int rng spacing in
              ignore
                (Sim.at cluster.Cluster.sim start (fun () ->
                     app (fun () ->
                         Apps.Echo.client client ~now:(Cluster.now cluster)
                           ~thread ~server_ip:cluster.Cluster.server_ip
                           ~port:7000 ~msg_size:echo_msg_size
                           ~msgs_per_conn:echo_msgs_per_conn ~stats ~stop_after)))
            done;
            (cluster, stats))
      in
      let sim = cluster.Cluster.sim in
      let ring =
        if traced then Some (start_ring_sampler sim cluster.Cluster.server_nics)
        else None
      in
      let warm_msgs =
        work Span.Engine (fun () ->
            Sim.run ~until:echo_warmup sim;
            let warm = stats.Apps.Echo.messages in
            Sim.run ~until:(echo_warmup + echo_measure) sim;
            warm)
      in
      fun () ->
        let ticks = match ring with Some r -> r.ticks | None -> 0 in
        let host = Option.get cluster.Cluster.server_ix in
        let msgs = stats.Apps.Echo.messages in
        let server_pinned, server_counts = server_facts cluster in
        let ix_pinned, ix_counts = ix_facts host ~per:msgs in
        let pinned =
          [
            float_fact "sim_throughput.ix"
              (float_of_int (msgs - warm_msgs) /. Sim_time.to_float_s echo_measure);
            float_fact "sim_p99_us.ix"
              (float_of_int (Engine.Histogram.percentile stats.Apps.Echo.latency 99.)
              /. 1e3);
            int_fact "echo.messages" msgs;
            int_fact "echo.connects" stats.Apps.Echo.connects;
            int_fact "echo.connect_failures" stats.Apps.Echo.connect_failures;
            int_fact "echo.goodput_bytes" stats.Apps.Echo.goodput_bytes;
          ]
          @ server_pinned @ ix_pinned
        in
        {
          events = Sim.events_executed sim - ticks;
          pinned;
          counts =
            (int_fact "engine.events" (Sim.events_executed sim - ticks) :: server_counts)
            @ ix_counts;
          measured = ring_measures (Option.to_list ring);
          problems = zero_checks pinned;
        })

(* ---- memcached-etc ------------------------------------------------ *)

(* One ETC load point (mutilate, 400 K RPS open loop, 1476 persistent
   connections from 6 x 8 Linux client threads) against IX, Linux and
   mTCP in turn; server threads as in fig5 (IX 6, Linux 8) and the
   ixsim default for mTCP (8). *)
let mc_servers = [ ("ix", Cluster.Ix, 6); ("linux", Cluster.Linux, 8); ("mtcp", Cluster.Mtcp, 8) ]
let mc_rps = 400_000.
let mc_connections = 1476
let mc_warmup_ms = 5
let mc_duration_ms = 20

let memcached_leg ~traced ~seed =
  framed ~traced (fun () ->
      let wrap = if traced then traced_stack else Fun.id in
      let profile = Workloads.Size_dist.etc in
      (* Each server's facts are read as soon as its run ends, so only
         one testbed is alive at a time. *)
      let per_stack =
        List.map
          (fun (label, kind, threads) ->
            let cluster, mc =
              setup (fun () ->
                  let cluster =
                    Span.run Span.Build (fun () ->
                        Cluster.build ~seed ~client_hosts:6 ~client_threads:8
                          ~server:(Cluster.server_spec ~threads ~nic_ports:1 kind)
                          ())
                  in
                  let mc =
                    Span.run Span.Handler (fun () ->
                        Apps.Memcached.server (wrap cluster.Cluster.server)
                          ~now:(Cluster.now cluster) ~port:11211 ())
                  in
                  Span.run Span.Preload (fun () ->
                      Workloads.Keygen.preload ~insert:(Apps.Memcached.insert mc)
                        ~profile ~seed:(seed + 1));
                  (cluster, mc))
            in
            let ring =
              if traced then
                Some (start_ring_sampler cluster.Cluster.sim cluster.Cluster.server_nics)
              else None
            in
            let r =
              work Span.Engine (fun () ->
                  Workloads.Mutilate.run ~sim:cluster.Cluster.sim
                    ~clients:(List.map wrap cluster.Cluster.clients)
                    ~server_ip:cluster.Cluster.server_ip ~port:11211 ~profile
                    ~connections:mc_connections ~target_rps:mc_rps
                    ~warmup_ms:mc_warmup_ms ~duration_ms:mc_duration_ms
                    ~seed:(seed + 2) ())
            in
            let ticks = match ring with Some r -> r.ticks | None -> 0 in
            let events = Sim.events_executed cluster.Cluster.sim - ticks in
            let n name = name ^ "." ^ label in
            let server_pinned, server_counts = server_facts ~suffix:("." ^ label) cluster in
            let open Workloads.Mutilate in
            let pinned =
              [
                float_fact (n "sim_throughput") r.achieved_rps;
                float_fact (n "sim_p99_us") r.p99_us;
                float_fact (n "workloads.mutilate.p95_us") r.p95_us;
                float_fact (n "workloads.mutilate.avg_us") r.avg_us;
                int_fact (n "workloads.mutilate.issued") r.issued;
                int_fact (n "workloads.mutilate.completed") r.completed;
                int_fact (n "apps.kv.gets") (Apps.Memcached.gets mc);
                int_fact (n "apps.kv.sets") (Apps.Memcached.sets mc);
                int_fact (n "apps.kv.hits") (Apps.Memcached.hits mc);
                int_fact (n "apps.kv.items") (Apps.Memcached.items mc);
                int_fact (n "apps.kv.lock_wait_ns") (Apps.Memcached.lock_wait_ns mc);
              ]
              @ server_pinned
            in
            let stack_pinned, stack_counts =
              match cluster.Cluster.server_ix with
              | Some host -> ix_facts host ~per:r.completed
              | None ->
                  ( [
                      float_fact (n "baselines.kernel_share")
                        (Net_api.kernel_share cluster.Cluster.server);
                      float_fact (n "baselines.busy_ns_per_req")
                        (float_of_int (Net_api.busy_ns cluster.Cluster.server)
                        /. float_of_int (max 1 r.completed));
                    ],
                    [] )
            in
            let problems =
              if r.completed > r.issued then
                [ Printf.sprintf "%s: mutilate completed %d > issued %d" label r.completed
                    r.issued ]
              else []
            in
            ( events,
              pinned @ stack_pinned,
              (int_fact (n "engine.events") events :: server_counts) @ stack_counts,
              ring,
              problems ))
          mc_servers
      in
      fun () ->
        let pinned = List.concat_map (fun (_, p, _, _, _) -> p) per_stack in
        {
          events = List.fold_left (fun a (e, _, _, _, _) -> a + e) 0 per_stack;
          pinned;
          counts = List.concat_map (fun (_, _, c, _, _) -> c) per_stack;
          measured =
            ring_measures (List.filter_map (fun (_, _, _, r, _) -> r) per_stack);
          problems =
            zero_checks pinned @ List.concat_map (fun (_, _, _, _, p) -> p) per_stack;
        })

(* ---- conn-churn --------------------------------------------------- *)

(* Conn_scale with 100 K SYN-cookie connections on a single
   Tcp_endpoint: establishment (timed alone as set-up, since
   Conn_scale.run has no hook between its phases), Zipf-hot messaging
   with close/reconnect churn, then a SYN flood at the cookie
   listener.  Legs are kept short: see README.md. *)
let churn_conns = 100_000
let churn_events = 50_000
let churn_flood_syns = 200_000
let churn_max_bytes_per_conn = 400.

let churn_leg ~traced ~seed =
  framed ~traced (fun () ->
      let est =
        setup (fun () ->
            Span.run Span.Establish (fun () ->
                Conn_scale.run ~conns:churn_conns ~events:0 ~seed ()))
      in
      let r =
        work Span.Churn (fun () ->
            Conn_scale.run ~conns:churn_conns ~events:churn_events ~seed ())
      in
      let fl =
        work Span.Flood (fun () -> Conn_scale.syn_flood ~syns:churn_flood_syns ~seed ())
      in
      fun () ->
        let open Conn_scale in
        let pinned =
          [
            int_fact "conn_scale.established" r.r_established;
            int_fact "conn_scale.closes" r.r_closes;
            int_fact "conn_scale.reconnects" r.r_reconnects;
            int_fact "tcp.rx_segs" (r.r_client_segs + fl.f_syns);
            int_fact "conn_scale.server_segs" r.r_server_segs;
            int_fact "conn_scale.live" r.r_connection_count;
            int_fact "tcp.store_live" r.r_store_live;
            int_fact "conn_scale.store_capacity" r.r_store_capacity;
            int_fact "conn_scale.time_wait_live" r.r_time_wait_live;
            int_fact "tcp.accepts" r.r_established;
            int_fact "conn_scale.cookies_sent" r.r_cookies_sent;
            int_fact "tcp.syn_cookies_validated" r.r_cookies_validated;
            int_fact "conn_scale.cookies_rejected" r.r_cookies_rejected;
            int_fact "tcp.rsts" r.r_rsts;
            int_fact "conn_scale.establish_live" est.r_connection_count;
            int_fact "conn_scale.flood_cookies_sent" fl.f_cookies_sent;
            int_fact "workloads.conn_scale.flood_tcbs_allocated" fl.f_tcbs_allocated;
            int_fact "conn_scale.flood_connections" fl.f_connections;
          ]
        in
        let w = r.r_wheel in
        let problems =
          List.concat
            [
              zero_checks pinned;
              (if r.r_connection_count <> churn_conns then
                 [ Printf.sprintf "live %d <> conns %d" r.r_connection_count churn_conns ]
               else []);
              (if est.r_connection_count <> churn_conns then
                 [ Printf.sprintf "established %d <> conns %d" est.r_connection_count
                     churn_conns ]
               else []);
              (if fl.f_tcbs_allocated <> 0 then
                 [ Printf.sprintf "SYN flood allocated %d TCBs" fl.f_tcbs_allocated ]
               else []);
              (if r.r_bytes_per_conn > churn_max_bytes_per_conn then
                 [ Printf.sprintf "%.1f B/conn > %.0f" r.r_bytes_per_conn
                     churn_max_bytes_per_conn ]
               else []);
            ]
        in
        {
          events = r.r_client_segs + fl.f_syns;
          pinned;
          counts =
            [
              int_fact "tcp.fast_path_hits" r.r_fast_hits;
              int_fact "tcp.slow_path_hits" r.r_slow_hits;
              int_fact "timerwheel.scheduled" w.Wheel.scheduled;
              int_fact "timerwheel.fired" w.Wheel.fired;
              int_fact "timerwheel.cancelled" w.Wheel.cancelled;
              int_fact "timerwheel.cascades" w.Wheel.cascades;
              int_fact "timerwheel.max_armed" w.Wheel.max_armed;
            ];
          measured =
            [
              ("bytes_per_conn", r.r_bytes_per_conn);
              ( "workloads.conn_scale.establish_minor_words_per_conn",
                r.r_establish_minor_words_per_conn );
              ("workloads.conn_scale.flood_minor_words_per_syn", fl.f_minor_words_per_syn);
            ];
          problems;
        })

(* ------------------------------------------------------------------ *)
(* Probes: host ns per call of one public function, on inputs shaped  *)
(* like the workload; run after the legs of a traced run.              *)

type shape = {
  queue_depth : int;  (** pending simulator events *)
  conns : int;  (** flow-table entries and armed timers *)
  payload : int;  (** TCP payload bytes per segment *)
}

let time_per_op ~ops f =
  let runs =
    List.init 5 (fun _ ->
        let t = now_ns () in
        for i = 1 to ops do
          f i
        done;
        float_of_int (now_ns () - t) /. float_of_int ops)
  in
  List.nth (List.sort compare runs) 2

let probe_push_pop shape =
  let q = Engine.Event_queue.create () in
  let rng = Rng.create ~seed:1 in
  for i = 1 to shape.queue_depth do
    Engine.Event_queue.push q ~time:(Rng.int rng 1_000_000) i
  done;
  let gaps = Array.init 4096 (fun _ -> 1 + Rng.int rng 1_000) in
  time_per_op ~ops:500_000 (fun i ->
      let t = Engine.Event_queue.min_time_exn q in
      let v = Engine.Event_queue.pop_min_exn q in
      Engine.Event_queue.push q ~time:(t + gaps.(i land 4095)) v)

let probe_schedule_cancel shape =
  let wheel = Wheel.create ~now:0 () in
  let rng = Rng.create ~seed:2 in
  let nop () = () in
  for _ = 1 to shape.conns do
    ignore (Wheel.schedule wheel ~deadline:(1 + Rng.int rng 200_000_000) nop)
  done;
  time_per_op ~ops:500_000 (fun i ->
      Wheel.cancel wheel
        (Wheel.schedule wheel ~deadline:(1 + (i * 7919 mod 200_000_000)) nop))

let probe_toeplitz _shape =
  time_per_op ~ops:1_000_000 (fun i ->
      ignore
        (Ixhw.Toeplitz.hash_tuple ~src_ip:(0x0A000001 + (i land 63))
           ~dst_ip:0x0A000101 ~src_port:(1024 + (i land 0x7FFF)) ~dst_port:7000 ()))

let probe_mempool _shape =
  let pool = Ixmem.Mempool.create ~capacity:4096 ~name:"probe" () in
  time_per_op ~ops:1_000_000 (fun _ ->
      match Ixmem.Mempool.alloc pool with
      | Some m -> Ixmem.Mbuf.decref m
      | None -> ())

let segment_len shape = Ixnet.Tcp_segment.header_size + shape.payload

let probe_checksum shape =
  let len = segment_len shape in
  let buf = Bytes.init len (fun i -> Char.chr (i * 31 land 0xFF)) in
  let ns = time_per_op ~ops:500_000 (fun _ -> ignore (Ixnet.Checksum.compute buf ~off:0 ~len)) in
  ns *. 1024. /. float_of_int len

let probe_segment () =
  let s = Ixnet.Tcp_segment.scratch () in
  s.Ixnet.Tcp_segment.src_port <- 40000;
  s.Ixnet.Tcp_segment.dst_port <- 7000;
  s.Ixnet.Tcp_segment.seq <- 123456;
  s.Ixnet.Tcp_segment.ack <- 654321;
  s.Ixnet.Tcp_segment.ack_flag <- true;
  s.Ixnet.Tcp_segment.psh <- true;
  s.Ixnet.Tcp_segment.window <- 0xFFFF;
  s

let src_ip = 0x0A000002
let dst_ip = 0x0A000001

let probe_encode shape =
  let seg = probe_segment () in
  let payload = String.make shape.payload 'x' in
  let m = Ixmem.Mbuf.create () in
  time_per_op ~ops:500_000 (fun _ ->
      Ixmem.Mbuf.reset m;
      Ixmem.Mbuf.append m payload;
      Ixnet.Tcp_segment.prepend m ~src:src_ip ~dst:dst_ip seg)

let probe_decode shape =
  let seg = probe_segment () in
  let m = Ixmem.Mbuf.create () in
  Ixmem.Mbuf.append m (String.make shape.payload 'x');
  Ixnet.Tcp_segment.prepend m ~src:src_ip ~dst:dst_ip seg;
  let scratch = Ixnet.Tcp_segment.scratch () in
  if not (Ixnet.Tcp_segment.decode_into m ~src:src_ip ~dst:dst_ip scratch) then
    failwith "probe: encoded segment does not decode";
  time_per_op ~ops:500_000 (fun _ ->
      ignore (Ixnet.Tcp_segment.decode_into m ~src:src_ip ~dst:dst_ip scratch))

let probe_flow_lookup shape =
  let store = Ixtcp.Tcb.store_create () in
  let env =
    Ixtcp.Tcb.make_env ~now:(fun () -> 0) ~wheel:(Wheel.create ~now:0 ())
      ~alloc:(fun () -> None) ~output:(fun _ _ -> ()) ~rng:(Rng.create ~seed:3)
      ~handle_alloc:(ref 0) ~store ()
  in
  let table = Ixtcp.Flow_table.create ~store in
  let key i = (7000, 0x0A020000 + (i / 50_000), 1024 + (i mod 50_000)) in
  for i = 0 to shape.conns - 1 do
    let local_port, remote_ip, remote_port = key i in
    let tcb =
      Ixtcp.Tcb.create env Ixtcp.Tcb.default_config ~local_ip:dst_ip ~local_port
        ~remote_ip ~remote_port ~cookie:0
    in
    Ixtcp.Flow_table.add table ~local_port ~remote_ip ~remote_port tcb
  done;
  time_per_op ~ops:500_000 (fun i ->
      let local_port, remote_ip, remote_port = key (i * 7919 mod shape.conns) in
      ignore (Ixtcp.Flow_table.find table ~local_port ~remote_ip ~remote_port))

let probe_log_hist _shape =
  let h = Ixtelemetry.Log_hist.create () in
  let values = Array.init 4096 (fun i -> 5_000 + (i * i * 37 mod 500_000)) in
  time_per_op ~ops:1_000_000 (fun i -> Ixtelemetry.Log_hist.record h values.(i land 4095))

let probes =
  [
    ("engine.probe.push_pop_ns", "ns", probe_push_pop);
    ("timerwheel.probe.schedule_cancel_ns", "ns", probe_schedule_cancel);
    ("hw.probe.toeplitz_ns", "ns", probe_toeplitz);
    ("mem.probe.mempool_alloc_free_ns", "ns", probe_mempool);
    ("net.probe.checksum_ns_per_kb", "ns/KB", probe_checksum);
    ("net.probe.tcp_decode_ns", "ns", probe_decode);
    ("net.probe.tcp_encode_ns", "ns", probe_encode);
    ("tcp.probe.flow_lookup_ns", "ns", probe_flow_lookup);
    ("telemetry.probe.log_hist_record_ns", "ns", probe_log_hist);
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  leg : traced:bool -> seed:int -> leg;
  shape : shape;
  absent : (string * string) list;
      (** per-layer metric prefixes this workload does not exercise,
          with the reason *)
}

let workloads =
  [
    {
      name = "echo-ix";
      leg = echo_leg;
      shape = { queue_depth = echo_sessions; conns = echo_sessions; payload = echo_msg_size };
      absent =
        [
          ("apps.preload_s", "echo preloads no KV store");
          ("baselines.", "the server is IX; no Linux or mTCP server runs");
          ("workloads.", "echo clients are Apps.Echo, not Mutilate or Conn_scale");
          ("tcp.syn_cookies_validated", "the IX listener does not use SYN cookies");
        ];
    };
    {
      name = "memcached-etc";
      leg = memcached_leg;
      shape = { queue_depth = mc_connections; conns = mc_connections; payload = 1024 };
      absent =
        [
          ("workloads.conn_scale.", "Conn_scale does not run");
          ("tcp.syn_cookies_validated", "no listener uses SYN cookies");
        ];
    };
    {
      name = "conn-churn";
      leg = churn_leg;
      shape = { queue_depth = 64; conns = churn_conns; payload = 0 };
      absent =
        [
          ("apps.", "Conn_scale drives Tcp_endpoint directly; no app or Net_api stack");
          ("harness.build_s", "no Cluster is built");
          ( "engine.",
            "Conn_scale is self-clocked; the simulator engine runs no events" );
          ("hw.", "segments are crafted in memory; no NIC, link or switch");
          ("core.", "no IX dataplane runs");
          ("baselines.", "no Linux or mTCP stack runs");
          ("workloads.mutilate.", "Mutilate does not run");
          ("tcp.closed_timeout", "Conn_scale.result does not expose it");
          ("tcp.tw_reacks", "Conn_scale.result does not expose it");
        ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics and reporting                                            *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them
   (the default exclusive method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs, median xs)
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, median xs, q 3)

let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
      in
      let v = loop () in
      close_in ic;
      v

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s

let render facts = String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") facts)

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | x :: xs, y :: ys -> if x = y then go (xs, ys) else Some (x, y)
    | x :: _, [] -> Some (x, "<missing>")
    | [], y :: _ -> Some ("<missing>", y)
    | [], [] -> None
  in
  go (la, lb)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v
           unit)
       ms)

(* ------------------------------------------------------------------ *)
(* Running, checking and reporting                                     *)

(* Host speed calibration.  Identical legs ran up to 1.6x slower from
   one minute to the next on a shared 2-core host, because other
   tenants contend for the cores and caches; that moved the median leg
   time of a 30 s run by up to 30%.  So each leg is bracketed by runs of
   this fixed reference loop (random reads over an 8 MB array, a hash table
   and small allocations, like the simulator's own mix), and host times
   are scaled by how much slower than nominal the loop ran.  The loop is
   part of the benchmark, never of the program under test, so a change
   to the program moves the scaled times in proportion to the raw ones.
   The nominal time is about the loop's time on that host when quiet;
   only ratios between runs matter. *)
let reference_nominal_s = 0.025

let reference_table = Hashtbl.create 65536
let reference_array = Array.init (1 lsl 20) (fun i -> i * 7919 land ((1 lsl 20) - 1))

let reference () =
  Hashtbl.reset reference_table;
  let t = now_ns () in
  let j = ref 1 in
  for r = 1 to 100_000 do
    j := reference_array.(((!j * 1103515245) + r) land ((1 lsl 20) - 1));
    Hashtbl.replace reference_table (!j land 65535) (r, !j);
    match Hashtbl.find_opt reference_table (r * 31 land 65535) with
    | Some (a, b) -> j := !j + a + b
    | None -> ()
  done;
  s_of_ns (now_ns () - t)

(* Host seconds of [ns] at the nominal host speed. *)
let nominal_s (l : leg) ns = s_of_ns ns *. l.speed

let describe_leg i (l : leg) =
  Printf.printf "leg %d%s: host_s=%.4f speed=%.3f leg_s=%.4f setup_s=%.4f spans=[%s]\n%!" i
    (if l.traced then " (traced)" else "")
    (s_of_ns l.leg_ns) l.speed (nominal_s l l.leg_ns) (nominal_s l l.setup_ns)
    (String.concat " "
       (List.filter_map
          (fun k ->
            let ns = l.self_ns.(Span.index k) in
            if ns = 0 then None
            else Some (Printf.sprintf "%s=%.4f" (Span.name k) (s_of_ns ns)))
          (Array.to_list Span.kinds)))

(* One warm-up leg, then legs until [seconds] have passed and at least
   [min_legs] ran; a traced run alternates untraced and traced legs.
   Returns every leg in order and the VmHWM after the warm-up leg. *)
let run_legs w ~seed ~seconds ~trace =
  let run i ~traced =
    (* Start every leg from a compacted heap, so no leg pays for
       collecting its predecessors' garbage. *)
    Gc.compact ();
    let before = reference () in
    let l = w.leg ~traced ~seed in
    let l = { l with speed = 2. *. reference_nominal_s /. (before +. reference ()) } in
    describe_leg i l;
    l
  in
  (* The first leg in a process pays for cold caches and heap growth;
     it is checked but not measured. *)
  let warm = run 0 ~traced:false in
  (* VmHWM after the one fresh leg: later legs reuse the heap, and how
     far fragmentation raises the high-water mark after that depends
     on how many legs the time budget allowed. *)
  let peak_rss_mb = vm_hwm_mb () in
  let t_start = now_ns () in
  let min_legs = if trace then 4 else 3 in
  let rec more acc n =
    if n >= min_legs && s_of_ns (now_ns () - t_start) >= seconds then List.rev acc
    else more (run (n + 1) ~traced:(trace && n mod 2 = 1) :: acc) (n + 1)
  in
  (warm :: more [] 0, peak_rss_mb)

let simulated l = render (l.facts.pinned @ l.facts.counts)

(* Problems per leg: the golden (on the first leg, at the default seed),
   same-seed determinism against the first leg, and the leg's own
   counter checks. *)
let check_legs w ~seed ~golden_dir ~update_golden legs =
  let first = List.hd legs in
  let golden_path = Filename.concat golden_dir (w.name ^ ".txt") in
  let pinned = render first.facts.pinned in
  let golden_problem =
    if seed <> default_seed then None
    else if update_golden then begin
      let oc = open_out_bin golden_path in
      output_string oc pinned;
      close_out oc;
      Printf.printf "golden: wrote %s\n" golden_path;
      None
    end
    else
      match read_file golden_path with
      | None -> Some (Printf.sprintf "golden %s missing" golden_path)
      | Some g when g = pinned -> None
      | Some g ->
          let want, got = Option.value (first_difference g pinned) ~default:("", "") in
          Some (Printf.sprintf "golden mismatch: want %S, got %S" want got)
  in
  let reference = simulated first in
  List.mapi
    (fun i l ->
      let text = simulated l in
      let determinism =
        if text = reference then []
        else
          let want, got = Option.value (first_difference reference text) ~default:("", "") in
          [ Printf.sprintf "%s leg differs from the first leg: %S vs %S"
              (if l.traced then "traced" else "untraced") want got ]
      in
      (if i = 0 then Option.to_list golden_problem else []) @ determinism @ l.facts.problems)
    legs

let fact_value (l : leg) name =
  match List.assoc_opt name (l.facts.pinned @ l.facts.counts) with
  | Some v -> Some (float_of_string v)
  | None -> List.assoc_opt name l.facts.measured

let med_of ls f = median (List.map f ls)
let span_s (l : leg) kind = nominal_s l l.self_ns.(Span.index kind)

let leg_s ls = med_of ls (fun l -> nominal_s l l.leg_ns)

let end_to_end ~untraced ~peak_rss_mb =
  [
    ("leg_s", "s", leg_s untraced);
    ("setup_s", "s", med_of untraced (fun l -> nominal_s l l.setup_ns));
    ("peak_rss_mb", "MB", peak_rss_mb);
    ( "minor_words_per_event", "words/event",
      med_of untraced (fun l -> l.work_words /. float_of_int (max 1 l.facts.events)) );
  ]

(* Workload-specific end-to-end results, printed for reading but kept
   out of the JSON result, which must hold the same nonzero metrics on
   every workload; the simulated ones are pinned by the golden. *)
let printed_only (first : leg) ~failed ~attempted =
  ("failed_share", "ratio", float_of_int failed /. float_of_int attempted)
  :: List.filter_map
       (fun (name, unit) -> Option.map (fun v -> (name, unit, v)) (fact_value first name))
       (("bytes_per_conn", "B")
       :: List.concat_map
            (fun s -> [ ("sim_throughput." ^ s, "1/s"); ("sim_p99_us." ^ s, "us") ])
            [ "ix"; "linux"; "mtcp" ])

let fact_metrics =
  [
    ("engine.events", "count");
    ("timerwheel.scheduled", "count");
    ("timerwheel.fired", "count");
    ("timerwheel.cancelled", "count");
    ("timerwheel.cascades", "count");
    ("timerwheel.max_armed", "count");
    ("hw.nic.rx_frames", "count");
    ("hw.nic.tx_frames", "count");
    ("hw.nic.rx_drops", "count");
    ("hw.nic.doorbells", "count");
    ("hw.switch.tail_drops", "count");
    ("hw.switch.ce_marks", "count");
    ("hw.rx_ring_depth.mean", "frames");
    ("hw.rx_ring_depth.max", "frames");
    ("tcp.rx_segs", "count");
    ("tcp.accepts", "count");
    ("tcp.rsts", "count");
    ("tcp.closed_timeout", "count");
    ("tcp.syn_cookies_validated", "count");
    ("tcp.tw_reacks", "count");
    ("tcp.store_live", "count");
    ("core.batch_mean", "packets");
    ("core.tx_burst_mean", "packets");
    ("core.cycles", "count");
    ("core.syscalls", "count");
    ("core.kernel_share", "ratio");
  ]
  @ List.map (fun st -> ("core.sim_ns_per_msg." ^ Tracer.stage_name st, "ns")) Tracer.stages
  @ [
      ("baselines.kernel_share.linux", "ratio");
      ("baselines.kernel_share.mtcp", "ratio");
      ("baselines.busy_ns_per_req.linux", "ns");
      ("baselines.busy_ns_per_req.mtcp", "ns");
      ("workloads.mutilate.issued", "count");
      ("workloads.mutilate.completed", "count");
      ("workloads.mutilate.p95_us.ix", "us");
      ("workloads.mutilate.p95_us.linux", "us");
      ("workloads.mutilate.p95_us.mtcp", "us");
      ("workloads.conn_scale.establish_minor_words_per_conn", "words/conn");
      ("workloads.conn_scale.flood_tcbs_allocated", "count");
      ("workloads.conn_scale.flood_minor_words_per_syn", "words/syn");
    ]

let per_layer w ~untraced ~traced =
  let last = List.hd (List.rev traced) in
  (* A layer metric is the leg's own fact when it has one, else the sum
     over the three servers a memcached leg runs. *)
  let fact name =
    match fact_value last name with
    | Some v -> Some v
    | None -> (
        match
          List.filter_map (fun s -> fact_value last (name ^ "." ^ s)) [ "ix"; "linux"; "mtcp" ]
        with
        | [] -> None
        | vs -> Some (List.fold_left ( +. ) 0. vs))
  in
  let self kind = med_of traced (fun l -> span_s l kind) in
  let fast = Option.value (fact "tcp.fast_path_hits") ~default:0. in
  let base = fast +. Option.value (fact "tcp.slow_path_hits") ~default:0. in
  let engine_s = med_of untraced (fun l -> span_s l Span.Engine) in
  let absent_reason name =
    List.find_map
      (fun (prefix, why) -> if String.starts_with ~prefix name then Some why else None)
      w.absent
  in
  let measured =
    [
      ("harness.build_s", "s", Some (self Span.Build));
      ("harness.trace_overhead", "ratio", Some ((leg_s traced /. leg_s untraced) -. 1.));
      ("apps.handler_s", "s", Some (self Span.Handler));
      ("apps.stack_call_s", "s", Some (self Span.Stack_call));
      ("apps.preload_s", "s", Some (self Span.Preload));
      ("engine.run_self_s", "s", Some (self Span.Engine));
      ( "engine.events_per_s", "1/s",
        if engine_s > 0. then Option.map (fun e -> e /. engine_s) (fact "engine.events")
        else None );
      ( "workloads.conn_scale.churn_s", "s",
        Some (med_of traced (fun l -> span_s l Span.Churn -. span_s l Span.Establish)) );
      ("tcp.fast_path_ratio", "ratio", if base > 0. then Some (fast /. base) else None);
      ("tcp.fast_path_base", "count", if base > 0. then Some base else None);
    ]
    @ List.map (fun (name, unit) -> (name, unit, fact name)) fact_metrics
    @ [
        ( "runtime.minor_collections", "count",
          Some (med_of traced (fun l -> float_of_int l.minor_collections)) );
        ( "runtime.major_collections", "count",
          Some (med_of traced (fun l -> float_of_int l.major_collections)) );
        ("runtime.major_words", "words", Some (med_of traced (fun l -> l.major_words)));
        ( "runtime.heap_top_mb", "MB",
          Some
            (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
            /. 1048576.) );
      ]
    @ List.map
        (fun (name, unit, f) ->
          (name, unit, if absent_reason name = None then Some (f w.shape) else None))
        probes
  in
  List.map
    (fun (name, unit, v) ->
      match (absent_reason name, v) with
      | None, Some v -> (name, unit, v)
      | reason, _ ->
          Printf.printf "absent %s on %s: %s (reported as 0)\n" name w.name
            (Option.value reason ~default:"not produced");
          (name, unit, 0.))
    measured

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--golden-dir DIR] [--out-dir DIR] [--update-golden]";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 35. in
  let trace = ref false and golden_dir = ref "perfbench/golden" in
  let out_dir = ref ".perfbench" and update_golden = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--golden-dir" :: v :: rest -> golden_dir := v; parse rest
    | "--out-dir" :: v :: rest -> out_dir := v; parse rest
    | "--update-golden" :: rest -> update_golden := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  Printf.printf "host: ocaml=%s recommended_domain_count=%d minor_heap_words=%d\n"
    Sys.ocaml_version (Domain.recommended_domain_count ())
    (Gc.get ()).Gc.minor_heap_size;
  print_endline
    "host: legs run sequentially in one domain: on a 2-core host the \
     jobs=2 Domain_pool leg measured 0.76x of sequential, and a second \
     domain would share the cores and caches being measured";
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%d\n%!" w.name !seed !seconds
    (Bool.to_int !trace);
  let legs, peak_rss_mb = run_legs w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let problems =
    check_legs w ~seed:!seed ~golden_dir:!golden_dir ~update_golden:!update_golden legs
  in
  List.iteri (fun i ps -> List.iter (Printf.printf "FAIL leg %d: %s\n" i) ps) problems;
  let attempted = List.length legs in
  let failed = List.length (List.filter (fun ps -> ps <> []) problems) in
  Printf.printf "check: %d/%d legs passed (determinism%s, counters)\n" (attempted - failed)
    attempted
    (if !seed = default_seed then ", golden" else "; golden applies at seed 42 only");
  let first = List.hd legs and measured = List.tl legs in
  let untraced = List.filter (fun l -> not l.traced) measured in
  let traced = List.filter (fun l -> l.traced) measured in
  if !trace then
    Printf.printf "check: traced legs' simulated outputs %s the untraced legs'\n"
      (if List.for_all (fun l -> simulated l = simulated first) traced then
         "byte-identical to"
       else "DIFFER from");
  let spread label times =
    let q1, q2, q3 = quartiles times in
    Printf.printf "%s: n=%d min=%.4f q1=%.4f median=%.4f q3=%.4f\n" label
      (List.length times) (List.fold_left Float.min infinity times) q1 q2 q3
  in
  spread "leg host_s" (List.map (fun l -> s_of_ns l.leg_ns) untraced);
  spread "leg_s" (List.map (fun l -> nominal_s l l.leg_ns) untraced);
  Printf.printf "warm-up leg: host_s=%.4f (checked, not measured)\n" (s_of_ns first.leg_ns);
  let e2e = end_to_end ~untraced ~peak_rss_mb in
  List.iter
    (fun (name, unit, v) -> Printf.printf "metric %s = %.6g %s\n" name v unit)
    (e2e @ printed_only first ~failed ~attempted);
  let metrics =
    if not !trace then e2e
    else begin
      let layers = per_layer w ~untraced ~traced in
      List.iter
        (fun (name, unit, v) -> Printf.printf "layer %s = %.6g %s\n" name v unit)
        layers;
      (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat !out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name !seed)
      in
      Span.write_chrome path;
      Printf.printf "trace: %d spans written to %s (%d past the in-memory cap dropped)\n"
        !Span.retained path !Span.dropped;
      layers
    end
  in
  let not_finite = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> Printf.printf "FAIL metric %s is not finite\n" name) not_finite;
  let correct = failed = 0 && not_finite = [] in
  let metrics =
    List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.)) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
