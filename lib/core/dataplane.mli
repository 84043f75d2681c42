(** An IX elastic thread: the run-to-completion dataplane loop
    (Fig. 1b of the paper).

    Each elastic thread exclusively owns one hardware thread, one RX/TX
    queue per NIC, its own mempool, timing wheel, flow table and
    event/syscall arrays — so the common case runs without any
    synchronization or coherence traffic (§4.4).

    A cycle executes the paper's six steps: (1) poll the receive ring
    and replenish descriptors, (2) run a *bounded* batch of packets
    through TCP/IP, generating event conditions, (3) switch to user
    mode and let the application consume the events, (4) process the
    application's batched system calls, (5) run kernel timers, and
    (6) place outgoing frames on the transmit ring.  All simulated CPU
    costs accrue during the cycle and outgoing frames hit the wire when
    the cycle ends.  When there is no work the thread goes quiescent
    and is re-armed by a NIC notification or the next timer deadline. *)

type t

type costs = {
  poll_ns : int;  (** fixed per cycle: polling the RX ring(s) *)
  rx_pkt_ns : int;  (** RX driver work per packet *)
  proto_rx_ns : int;  (** TCP/IP input per packet *)
  proto_tx_ns : int;  (** TCP/IP output per segment *)
  tx_pkt_ns : int;  (** TX driver work per frame *)
  event_ns : int;  (** generate + consume one event condition *)
  syscall_ns : int;  (** process one batched system call *)
  timer_ns : int;  (** fixed per-cycle timer pass *)
  copy_ns_per_kb : int;  (** charged only when zero-copy is disabled *)
}

val default_costs : costs
(** Calibrated so that ~3 cores saturate 10GbE on the 64 B echo
    benchmark, as in Fig. 3a. *)

val create :
  sim:Engine.Sim.t ->
  thread_id:int ->
  core:Ixhw.Cpu_core.t ->
  local_ip:Ixnet.Ip_addr.t ->
  queues:(Ixhw.Nic.t * Ixhw.Nic.rx_queue) list ->
  tx_nic:Ixhw.Nic.t ->
  arp:Arp_cache.t ->
  rcu:Rcu.manager ->
  ?costs:costs ->
  ?batch_bound:int ->
  ?batch_mode:Batch.mode ->
  ?config:Ixtcp.Tcb.config ->
  ?zero_copy:bool ->
  ?polling:bool ->
  ?cache:Ixhw.Cache_model.t ->
  ?conn_count:int ref ->
  ?pcie:Ixhw.Pcie_model.t ->
  ?metrics:Ixtelemetry.Metrics.t ->
  ?tracer_capacity:int ->
  ?handle_alloc:int ref ->
  rng:Engine.Rng.t ->
  unit ->
  t
(** [queues] lists (nic, rx queue) pairs this thread serves;
    [tx_nic] is where it transmits.  [arp] is the host's ARP table: the
    thread's {!Host_net} (framing, ARP, receive decode and its
    [rx_csum_drops]/[rx_other]/[arp_drops] counters) runs over it.  [polling:false] is the ablation
    that makes the thread interrupt-driven (a fixed wakeup latency is
    added before each cycle triggered by a NIC notification).
    [cache]/[conn_count] enable the connection-count L3 model used by
    the Fig. 4 experiment.  [metrics] is the registry where the thread
    registers its [dataplane.<id>.*] counters (a private registry is
    created when omitted); [tracer_capacity] sizes the cycle tracer's
    span ring (default 4096).  [handle_alloc] is the flow-handle
    allocator shared by the host's elastic threads, so migrated flows
    keep unique handles (a private allocator is used when omitted). *)

val thread_id : t -> int
val core : t -> Ixhw.Cpu_core.t
val endpoint : t -> Ixtcp.Tcp_endpoint.t
val batcher : t -> Batch.t
val protection : t -> Protection.t
val policy : t -> Policy.t
val now : t -> Engine.Sim_time.t

val set_app : t -> (Ix_api.event list -> unit) -> unit
(** Install the application's event-condition handler (ring 3).  It
    runs during step 3 of each cycle; it may call [syscall] and
    [charge_user]. *)

val listen : t -> port:int -> unit
(** Open a kernel-level listener; established connections surface as
    [Ev_knock] events. *)

val udp_bind : t -> port:int -> unit
(** Open a UDP port; datagrams surface as [Ev_udp_recv] events
    (zero-copy mbuf slices).  Send with [Sys_udp_sendv]. *)

val udp_unbind : t -> port:int -> unit

val syscall : t -> Ix_api.syscall -> on_result:(Ix_api.syscall_result -> unit) -> unit
(** Stage a batched system call (valid only while the application is
    running in user mode; raises [Protection.Protection_violation]
    otherwise).  [on_result] fires when the kernel processes the batch
    (step 4) with the written-back return code. *)

val bootstrap : t -> (unit -> unit) -> unit
(** Run application setup code in user mode before any packet has
    arrived (the initial [run_io] round): the closure may issue
    syscalls; a first cycle is kicked afterwards. *)

val charge_user : t -> int -> unit
(** Account [ns] of application (ring 3) compute time to this cycle. *)

val in_app_context : t -> bool
(** True while the application (user phase) is executing; used by
    adapters to decide whether a bootstrap transition is needed. *)

val kick : t -> unit
(** Request a cycle (NIC notify wiring calls this automatically). *)

val flows : t -> int
(** Connections owned by this elastic thread. *)

val abort_all_connections : t -> int
(** Control-plane drain: forcibly reset ([Tcp_conn.abort]) every
    connection this elastic thread still owns and flush the resulting
    RSTs; returns how many were aborted.  The chaos harness calls this
    on every host at drain time so the end-of-run audit sees empty flow
    tables regardless of what the fault plan destroyed. *)

val migrate_flows_to : t -> t -> unit
(** Control-plane flow migration when this thread is revoked: move every
    connection (flow-table entries and retransmission timers) to the
    destination elastic thread (§4.4 "when a core is revoked ... the
    corresponding network flows must be assigned to another elastic
    thread"). *)

(** {2 Flow-group migration}

    The mechanism below is driven by {!Control_plane.migrate_flow_group};
    see DESIGN.md §8 for the full no-drop protocol.  In brief: the
    destination {!park_inbound}s the group, the NIC indirection entry is
    retargeted, the source waits (via {!add_cycle_watcher} +
    {!drained_past}) until every frame steered to it before the
    retarget has been processed, then hands the group's TCBs over
    ({!migrate_group_to}) and the destination replays the parked frames
    ({!unpark_inbound}) in arrival order. *)

val rss_group_of_flow : t -> Ixtcp.Tcb.t -> int
(** The RSS flow group of a connection's receive direction at this
    host — the unit of migration.  [-1] for a thread with no queues. *)

val migrate_group_to : t -> t -> group:int -> int list
(** Hand every connection of [group] (flow-table entries, handles and
    pending timers) to the destination thread; returns the cookies of
    the moved conns so libix state can follow
    ({!Libix.migrate_conns}). *)

val park_inbound : t -> group:int -> unit
(** Destination side: hold arriving TCP frames of [group] aside, in
    arrival order, instead of delivering them to a flow table that does
    not yet own the TCBs.  Idempotent. *)

val unpark_inbound : t -> group:int -> int
(** End of the handover: queue the group's parked frames for replay at
    the head of the next cycle (before newly polled frames, preserving
    arrival order) and kick the thread.  Returns how many frames were
    parked. *)

val rx_watermarks : t -> int list
(** Per-queue totals of frames ever steered to this thread, captured at
    retarget time; the source is drained once {!drained_past} these. *)

val drained_past : t -> int list -> bool
(** True when every frame counted by the watermarks has been processed
    and nothing is staged (events, syscalls, unaccepted knocks) — i.e.
    no in-flight state references the migrating group on this thread. *)

val add_cycle_watcher : t -> (unit -> bool) -> unit
(** Poll a predicate at the end of every run-to-completion cycle (after
    the RCU quiescent point) until it returns true; kicks the thread so
    an idle source still evaluates it. *)

val cycles_run : t -> int
val events_delivered : t -> int
val syscalls_processed : t -> int

val note_app_fault : t -> unit
(** Count one contained application fault under
    [dataplane.<id>.app_faults].  Libix bumps this when a handler
    exception is caught and the offending connection aborted; the
    dataplane's own user-phase backstop bumps it for exceptions that
    escape the whole batch. *)

val app_faults : t -> int

val pool : t -> Ixmem.Mempool.t
(** The thread's packet-buffer pool — exposed for the chaos audit's
    leak check ([live_count] must return to the TX-queue baseline) and
    for fault injection ([Mempool.set_alloc_gate]). *)

val metrics : t -> Ixtelemetry.Metrics.t
(** The registry holding this thread's [dataplane.<id>.*] counters
    ([cycles], [rx_pkts], [tx_pkts], [events], [syscalls],
    [nonresponsive], [rx_csum_drops], [rx_other], [app_faults]). *)

val tracer : t -> Ixtelemetry.Tracer.t
(** The per-thread cycle tracer.  Each run-to-completion cycle records
    one span per non-empty stage plus the two protection-domain
    crossings around the user phase; stage totals tile the cycle's
    charged busy time exactly, so [Tracer.busy_ns] equals the core's
    accumulated kernel+user nanoseconds from cycle work. *)

val set_background_work : t -> slice_ns:int -> (unit -> unit) -> unit
(** Install a background thread (§4.1): [work] runs in user mode in
    [slice_ns] slices whenever the elastic thread is idle — e.g.
    garbage collection — and yields to network work at slice
    boundaries. *)

val clear_background_work : t -> unit

val background_slices : t -> int
(** Slices executed so far. *)

val ping : t -> dst:Ixnet.Ip_addr.t -> ident:int -> seq:int -> unit
(** Emit an ICMP echo request (diagnostic path, kernel level). *)

val set_ping_handler :
  t -> (src_ip:Ixnet.Ip_addr.t -> Ixnet.Icmp_packet.t -> unit) -> unit
(** Receive ICMP echo replies. *)

val nonresponsive_marks : t -> int
(** Times the user phase exceeded the 10 ms timeout interrupt (§4.5),
    after which the control plane would be notified. *)
