(** The tuned-Linux baseline (§5.1): an interrupt-driven kernel stack
    with epoll-based applications.

    The model reproduces the mechanisms the paper identifies as the
    cost of the commodity design: NIC interrupts with adaptive
    moderation, softirq per-packet protocol processing, socket buffers
    with copy-in/copy-out at the syscall boundary, scheduler wakeups of
    blocked epoll threads, and POSIX buffered-send semantics.  Per the
    paper's tuning guidance, application threads are pinned one per
    core, flows are affinitized to the accepting core (SO_REUSEPORT +
    affinity-accept + RSS), and background tasks are disabled.

    The same shared TCP engine (lib/tcp) runs underneath, configured
    with Linux parameters (200 ms minimum RTO, 40 ms delayed ACKs,
    4 MB autotuned-style buffers), over the host network layer all
    three stacks share ({!Ix_core.Host_net}); the socket layer is
    {!Sockets}, shared with mTCP. *)

type costs = {
  irq_entry_ns : int;
  softirq_pkt_ns : int;  (** NAPI poll + skb + TCP input, per packet *)
  wakeup_ns : int;  (** scheduler wakeup + context switch *)
  epoll_ns : int;  (** epoll_wait return, per call *)
  epoll_event_ns : int;  (** per ready descriptor *)
  syscall_ns : int;  (** read/write/accept entry+exit *)
  copy_ns_per_kb : int;  (** user/kernel copies, both directions *)
  proto_tx_ns : int;  (** TCP output per segment *)
  tx_pkt_ns : int;  (** qdisc + driver per frame *)
  itr_interval_ns : int;  (** adaptive interrupt-moderation floor *)
}

val default_costs : costs

val linux_tcp_config : Ixtcp.Tcb.config

val create :
  sim:Engine.Sim.t ->
  host_id:int ->
  ip:Ixnet.Ip_addr.t ->
  nics:Ixhw.Nic.t array ->
  threads:int ->
  ?costs:costs ->
  ?config:Ixtcp.Tcb.config ->
  ?cache:Ixhw.Cache_model.t ->
  ?metrics:Ixtelemetry.Metrics.t ->
  seed:int ->
  unit ->
  Netapi.Net_api.stack
(** [metrics] is the telemetry registry the stack publishes through
    [Net_api.stack.metrics]: per-core [linux.<i>.{irqs,pkts,wakeups,
    syscalls}] counters, the host network layer's
    [linux.<i>.{rx_csum_drops,rx_other,arp_drops}], the shared TCP endpoint counters and the
    [kernel_share]/[busy_ns] probe gauges.  A private registry is
    created when omitted. *)
