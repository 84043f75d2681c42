(** The host network layer below TCP, shared by IX, Linux and mTCP:
    ARP (one {!Arp_cache} per host), IPv4 and Ethernet framing, and
    receive-side Ethernet/IPv4 decode with its accounting.

    One [t] per thread.  The layer charges no CPU time: each stack
    charges its own costs around these calls.  Frames the layer makes
    itself — ARP requests and replies, and parked datagrams released by
    a reply — leave through the [emit] function the stack passes in. *)

type t

val create :
  arp:Arp_cache.t ->
  pool:Ixmem.Mempool.t ->
  mac:Ixnet.Mac_addr.t ->
  local_ip:Ixnet.Ip_addr.t ->
  emit:(Ixmem.Mbuf.t -> unit) ->
  metrics:Ixtelemetry.Metrics.t ->
  prefix:string ->
  t
(** [pool] is the thread's TX pool and supplies ARP frames; [mac] is
    the transmitting NIC's address.  Registers [<prefix>.rx_csum_drops],
    [<prefix>.rx_other] and [<prefix>.arp_drops] (datagrams dropped
    because 8 already wait on the same unresolved IP) in [metrics], and
    the probe gauges [<prefix>.pool.live] and [<prefix>.pool.provisioned]
    (mbufs handed out, mbufs created so far). *)

val output :
  t -> protocol:Ixnet.Ipv4_packet.protocol -> remote_ip:Ixnet.Ip_addr.t -> Ixmem.Mbuf.t -> bool
(** Prepend the IPv4 header to the L4 payload in the mbuf, then the
    Ethernet header if [remote_ip]'s MAC is known, and return [true]:
    the caller ships the frame.  On a miss the datagram is parked (or
    dropped and counted when the IP's parking is full), one ARP request
    is emitted, and the result is [false]. *)

val rx : t -> Ixmem.Mbuf.t -> bool
(** Decode one received frame.  [true]: an IPv4 datagram for this host,
    with its header in {!ip} and the mbuf advanced to the L4 payload.
    Everything else is handled and counted here: runts and bad IPv4
    headers in [rx_csum_drops]; ARP (learned, parked frames released,
    requests for the local IP answered), other ethertypes and wrong
    destinations in [rx_other].  The caller keeps its mbuf reference. *)

val ip : t -> Ixnet.Ipv4_packet.t
(** The header {!rx} decoded; valid until the next frame. *)

val seg : t -> Ixnet.Tcp_segment.t
(** The header {!decode_tcp} decoded; valid until the next frame. *)

val decode_tcp : t -> Ixmem.Mbuf.t -> bool
(** Decode and checksum the TCP segment of the datagram {!rx} accepted
    into {!seg}; a failure is counted in [rx_csum_drops]. *)

val deliver_tcp : t -> Ixtcp.Tcp_endpoint.t -> Ixmem.Mbuf.t -> unit
(** Hand the segment {!decode_tcp} decoded to the endpoint. *)

val count_other : t -> unit
(** Count an accepted datagram the caller handled without a TCP
    delivery (ICMP, UDP, a policy reject) in [rx_other]. *)

val input : t -> Ixtcp.Tcp_endpoint.t -> Ixmem.Mbuf.t -> unit
(** The whole receive path of a host that speaks only TCP (the
    baselines): {!rx}, then {!decode_tcp} and {!deliver_tcp}; other
    protocols count in [rx_other]. *)
