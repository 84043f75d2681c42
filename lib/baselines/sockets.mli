(** The socket layer shared by the Linux and mTCP baselines: socket
    records over the shared TCP engine, send with backlog, the per-round
    service step that hands received data, acknowledged bytes and
    closes to the app, connect/listen, and the per-thread endpoint and
    host network layer set-up.

    Each baseline keeps only what makes it that design — Linux its
    IRQ/NAPI/GRO path and epoll wakeups, mTCP its stack thread and
    batched rounds — and describes the rest as a {!design}. *)

type connect_delivery =
  | Job
      (** Linux: [on_connected] is queued as a job, and a round runs
          every job before it services any socket. *)
  | With_socket
      (** mTCP: [on_connected] is delivered in the socket's own service
          step, just before its data. *)

type design = {
  name : string;  (** ["linux"] / ["mtcp"]: stack name and metric prefix *)
  domain : Ixhw.Cpu_core.domain;
      (** where socket calls, copies and per-socket event work are
          charged: kernel for Linux, user for mTCP *)
  call_ns : int;  (** one socket call: read/write/close/connect *)
  calls_counter : string;  (** [<name>.<i>.<calls_counter>] counts them *)
  copy_ns_per_kb : int;  (** user/stack copies, both directions *)
  event_ns : int;  (** per ready socket serviced in a round *)
  proto_tx_ns : int;  (** TCP output per segment, charged to the kernel *)
  accept_is_call : bool;  (** a passive open costs one socket call *)
  connect_delivery : connect_delivery;
  emit : Ixhw.Cpu_core.t -> Ixhw.Nic.t -> Ixmem.Mbuf.t -> unit;
      (** send a frame the host network layer made itself (ARP, released
          parked datagrams) *)
  ship : Ixhw.Cpu_core.t -> Ixhw.Nic.t -> Ixmem.Mbuf.t -> unit;
      (** send a TCP segment framed as it was output *)
}

type t
(** One thread (core) of a baseline host. *)

val create :
  sim:Engine.Sim.t ->
  host_id:int ->
  ip:Ixnet.Ip_addr.t ->
  nics:Ixhw.Nic.t array ->
  threads:int ->
  design:design ->
  config:Ixtcp.Tcb.config ->
  metrics:Ixtelemetry.Metrics.t ->
  rng:Engine.Rng.t ->
  t array * Netapi.Net_api.stack
(** Per thread: a core, a timer wheel, a mempool, a {!Ix_core.Host_net}
    over the host's one ARP table and a TCP endpoint; RSS spreads flow
    groups across the threads.  The stack record serves connect,
    listen, run_app and charge_app from these threads and publishes
    the [kernel_share]/[busy_ns] probes.  The caller sets each thread's
    {!set_wake} before the simulation runs. *)

val set_wake : t -> (unit -> unit) -> unit
(** The design's wakeup policy: called whenever app work is queued on
    the thread (Linux schedules its epoll thread, mTCP its next round). *)

val sim : t -> Engine.Sim.t
val cpu : t -> Ixhw.Cpu_core.t
val queues : t -> (Ixhw.Nic.t * Ixhw.Nic.rx_queue) list

val conn_count : t -> int
(** Live sockets on the whole host. *)

val charge : t -> Ixhw.Cpu_core.domain -> int -> unit
(** Charge the thread's core now. *)

val rx_frame : t -> Ixmem.Mbuf.t -> unit
(** Receive one polled frame (Ethernet/IPv4/ARP, then TCP) and release
    it. *)

val run_timers : t -> unit
(** Advance the thread's timer wheel, re-arm its wakeup, and wake the
    app if sockets became ready. *)

val run_round : t -> unit
(** One app round: run the queued jobs, then service every ready socket
    in the order it became ready. *)

val has_app_work : t -> bool
