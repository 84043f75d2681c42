(** The paper's evaluation (§5): one runner per table and figure, each
    regenerating the corresponding rows/series on the simulated
    testbed.  Absolute numbers come from the calibrated cost models;
    the claims under reproduction are the *shapes* (who wins, by what
    factor, where crossovers fall) — see EXPERIMENTS.md.

    Every runner prints a table via {!Report} and returns its data so
    the test suite can assert the trends. *)

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

val scale : unit -> float
(** Duration multiplier from the [IX_BENCH_SCALE] environment variable
    (default 1.0; smaller = faster, noisier). *)

type output = { metrics : bool; trace : string option }
(** Telemetry emission for a run (the CLIs' [--metrics]/[--trace]
    flags), threaded explicitly into each runner.  With [metrics=true]
    every runner prints a Table-2-style per-stage cycle breakdown (IX
    servers) and the server's metric snapshot — read through the
    portable {!Netapi.Net_api.stack} interface — next to its
    throughput/latency table.  With [trace=Some path] runners
    additionally dump the server's retained cycle spans as Chrome
    [trace_event] JSON to [path] (load via chrome://tracing or
    Perfetto). *)

(** Parallelism: sweep runners take [?jobs] (default 1 = sequential;
    the CLI's [--jobs] flag) and fan their independent simulations over
    that many domains via {!Engine.Domain_pool}; results are collected
    in submission order, and a parallel run is bit-identical to
    [jobs=1] with the same seeds.  Requesting telemetry output forces a
    runner back to the sequential path so tables don't interleave. *)

val echo_breakdown :
  ?output:output ->
  ?cores:int ->
  ?msg_size:int ->
  unit ->
  (Ixtelemetry.Tracer.stage * int * int) list * int
(** Run a short 64 B echo on IX and print its Table-2-style cycle
    breakdown.  Returns the per-stage [(stage, total_ns, spans)] rows
    aggregated over all elastic threads plus the total busy time
    (kernel + user ns) the cores accounted; the rows sum exactly to
    the busy total. *)

val run_echo :
  ?output:output ->
  ?label:string ->
  ?client_hosts:int ->
  ?client_threads:int ->
  ?sessions:int ->
  ?cache:Ixhw.Cache_model.t ->
  ?pcie:Ixhw.Pcie_model.t ->
  ?zero_copy:bool ->
  ?polling:bool ->
  ?batch_bound:int ->
  ?batch_mode:Ix_core.Batch.mode ->
  ?batch_stats:(float * float * int) ref ->
  ?hits:int ref * int ref ->
  ?elastic:bool ->
  kind:Cluster.kind ->
  ports:int ->
  cores:int ->
  msg_size:int ->
  msgs_per_conn:int ->
  unit ->
  echo_point
(** One echo measurement on a fresh cluster (the primitive behind the
    Fig. 3 sweeps, also exposed for the CLI).

    [?hits] is a [(fast, slow)] pair of accumulators the runner adds
    the cluster-wide [fast_path_hits]/[slow_path_hits] counters into
    after its measurement window.

    [?elastic] (default [false], IX only): [cores] becomes provisioned
    capacity and the {!Ix_core.Elastic} policy loop scales the live
    core count with load, starting from one; a summary line reports the
    peak.  Elastic off leaves the run untouched. *)

val netpipe_once :
  ?fast_path:bool ->
  ?hits:int ref * int ref ->
  kind:Cluster.kind ->
  size:int ->
  unit ->
  netpipe_point
(** One NetPIPE ping-pong point.  [?fast_path] (default [true]):
    [false] disables the TCP header-prediction receive fast path on
    every stack in the cluster — the reference path, which must not
    change any result. *)

val run_memcached :
  ?output:output ->
  ?hits:int ref * int ref ->
  kind:Cluster.kind ->
  server_threads:int ->
  ?batch_bound:int ->
  profile:Workloads.Size_dist.profile ->
  target_rps:float ->
  unit ->
  Workloads.Mutilate.result * float
(** One memcached load point; also returns the server's kernel-time
    share. *)

val fig2 : ?jobs:int -> ?sizes:int list -> unit -> netpipe_point list
(** NetPIPE goodput vs message size, Linux/mTCP/IX on both ends.
    [sizes] narrows the sweep (the determinism tests run a reduced
    slice). *)

val fig3a : ?output:output -> ?jobs:int -> unit -> echo_point list
(** Multi-core scalability, 64 B echo, n=1 connection per message, with
    a speedup-vs-1-core column per system.  Each IX point is one
    simulated host running N per-core dataplanes behind the NIC's RSS
    indirection table (near-linear scaling is the acceptance shape;
    test_elastic asserts it on a reduced sweep). *)

val fig3b : ?output:output -> ?jobs:int -> unit -> echo_point list
(** Round trips per connection (n sweep) at 8 cores. *)

val fig3c : ?output:output -> ?jobs:int -> unit -> echo_point list
(** Message-size sweep (n=1) at 8 cores. *)

val run_connection_scaling :
  ?hits:int ref * int ref ->
  kind:Cluster.kind ->
  conns:int ->
  workers:int ->
  unit ->
  float
(** One Fig. 4 point: messages/sec with [conns] live connections and
    [workers] concurrent closed-loop requesters. *)

val fig4 : ?jobs:int -> ?conn_counts:int list -> unit -> (string * int * float) list
(** Connection scalability: (system, connection count, messages/sec).
    [conn_counts] narrows the sweep. *)

val fig5 :
  ?output:output ->
  ?jobs:int ->
  ?targets:float list ->
  ?profiles:Workloads.Size_dist.profile list ->
  unit ->
  memcached_point list
(** memcached ETC/USR throughput-vs-latency sweeps, Linux vs IX.
    [targets]/[profiles] narrow the sweep. *)

val fig6 : ?output:output -> ?jobs:int -> unit -> (int * float * float) list
(** Batch bound B sweep on USR: (B, achieved kRPS at high load,
    low-load p99 µs). *)

val table2 : ?output:output -> ?jobs:int -> memcached_point list -> unit
(** Derive Table 2 (unloaded p99 latency; max RPS under the 500 µs p99
    SLA) from the fig5 sweep plus dedicated unloaded runs. *)

val run_incast :
  senders:int -> block:int -> config:Ixtcp.Tcb.config -> ecn:bool -> float
(** One incast fan-in run; returns goodput in Gbps (0.0 if the transfer
    never completed within the horizon). *)

val run_incast_stats :
  senders:int -> block:int -> config:Ixtcp.Tcb.config -> ecn:bool ->
  float * int * int
(** Like {!run_incast} but also returns (CE marks, tail drops) at the
    receiver's switch port. *)

val incast : ?jobs:int -> unit -> unit
(** Extension experiment (paper §6): incast goodput under a coarse RTO,
    the fine-grained RTO the 16 µs timing wheel enables [64], and
    DCTCP over an ECN-marking switch queue. *)

val energy : ?output:output -> ?jobs:int -> unit -> unit
(** Extension experiment (§4.3): the polling-vs-C-state trade-off —
    power and energy per message across load levels for polling and
    interrupt-driven IX. *)

type elastic_result = {
  el_samples : Ix_core.Elastic.sample list;
  el_decisions : Ix_core.Elastic.decision list;
  el_peak_cores : int;  (** most live cores any controller sample saw *)
  el_final_cores : int;  (** live cores when the trace ended *)
  el_migrations : int;  (** completed flow-group migrations *)
  el_parked_frames : int;  (** frames parked (and replayed) across them *)
  el_slo_p99_us : float;  (** the SLO the controller held *)
  el_burst_breaches : int;
      (** burst-phase controller windows whose p99 still exceeded the
          SLO after the controller's settle time — 0 means the SLO held
          across the burst *)
  el_energy_j : float;  (** energy of the cores-used curve *)
  el_static_energy_j : float;  (** all-capacity-always-on reference *)
  el_msgs : int;
}

val elastic_scaling : ?output:output -> ?seed:int -> unit -> elastic_result
(** The elastic-scaling experiment (tentpole, DESIGN.md §8): a bursty
    load trace against one IX host with 4 provisioned dataplanes
    starting on a single live core.  The {!Ix_core.Elastic} policy loop
    (utilization + client-side windowed p99, with hysteresis) walks the
    core count up into the burst and back down after it; every decision
    is a set of no-drop flow-group migrations.  Prints the cores-used
    curve and a summary (SLO hold, migrations, energy vs static
    provisioning).  A single simulation: bit-identical at any [--jobs]
    width by construction. *)

val ablations : ?output:output -> ?jobs:int -> unit -> unit
(** Design-choice ablations from DESIGN.md §5: batching off, interrupts
    instead of polling, copying instead of zero-copy, uncoalesced PCIe
    doorbells, and broken flow steering. *)

type perf_slice = {
  perf_name : string;
  perf_events : int;  (** sim events executed by the slice *)
  perf_snapshot : string;  (** full-precision metric snapshot *)
  perf_fast_hits : int;  (** header-prediction fast-path deliveries *)
  perf_slow_hits : int;  (** segments that took the full TCP input path *)
}
(** One fixed-seed perf-regression run (the [ixsim perf]
    subcommand).  [perf_snapshot] is deterministic: the same seed
    must reproduce it bit-for-bit across runs and engine versions, so
    BENCH_PERF.json tracks pure engine speed.  The hit counters live
    beside the snapshot, never inside it: a [~fast_path:false] run of
    a slice that takes [?fast_path] must produce a bit-identical
    snapshot (header prediction is a pure optimization). *)

val perf_fig2_slice : ?fast_path:bool -> ?sizes:int list -> unit -> perf_slice
(** An IX NetPIPE ping-pong sweep over [sizes] (Fig. 2 slice). *)

val perf_fig4_slice : ?conns:int -> unit -> perf_slice
(** Connection scalability at [conns] live connections (Fig. 4 slice);
    the cancellation-heavy engine workload. *)

val perf_fig5_slice : ?target_krps:float -> unit -> perf_slice
(** One memcached USR load point on IX (Fig. 5 slice). *)

val perf_fig3a_slice : unit -> perf_slice
(** IX 64 B echo at 1/2/4 cores on the sharded sim (Fig. 3a slice):
    pins the multi-core throughput curve per core count.  Runs 8
    messages per connection (the figure sweeps use 1) so the slice's
    fast-path ratio reflects steady-state delivery rather than
    handshake segments. *)

val perf_conn_scale_slice : ?conns:int -> ?events:int -> unit -> perf_slice
(** Connection-churn slice of [Workloads.Conn_scale]: [conns]
    SYN-cookie connections established then churned for [events]
    Zipf-hot events with TIME_WAIT recycling.  [perf_events] counts
    crafted client segments (the workload is self-clocked, not
    Sim-driven); the snapshot is the workload's deterministic counter
    string. *)

val perf_batch_sweep_slice :
  ?client_hosts:int ->
  ?client_threads:int ->
  ?sessions:int ->
  unit ->
  perf_slice
(** One echo point per batch-sweep figure config (fixed B=1/B=64 and the
    adaptive controller), batch telemetry included in the snapshot:
    the controller is driven purely by the deterministic next_batch
    call stream, so mean batch, mean TX burst and the bound in effect
    must reproduce bit-for-bit. *)

val perf_migration_slice : ?fast_path:bool -> unit -> perf_slice
(** Flow-group migration under live load: 4 cores shrink to 2 and grow
    back mid-echo.  Pins migration count, parked-frame count,
    cumulative retarget-to-handover latency and the message total
    (traffic must keep flowing). *)

val chaos :
  ?jobs:int ->
  ?seed:int ->
  ?spec:Ix_faults.Fault_plan.spec ->
  ?soak_ms:int ->
  ?echo_legs:int ->
  ?quiet:bool ->
  unit ->
  Chaos.leg list
(** The chaos soak (see {!Chaos}): echo + memcached legs under a
    deterministic fault plan, each ending in an invariant audit.
    Raises [Failure] if any audit fails.  The [ixsim chaos] subcommand
    calls this. *)

type context
(** One run's settings ([?output], [?jobs]) plus the fig5 sweep that
    the fig5 and table2 entries share. *)

val context : ?output:output -> ?jobs:int -> unit -> context

val figures : (string * (context -> unit)) list
(** The figure table: every sweep [ixsim fig] regenerates, by name, in
    the order {!run_all} runs them. *)

val run_all : ?output:output -> ?jobs:int -> unit -> unit
(** Run every entry of {!figures} on one {!context}, so fig5 runs once. *)
