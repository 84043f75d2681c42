module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Metrics = Ixtelemetry.Metrics
module Eth = Ixnet.Ethernet
module Ipv4_packet = Ixnet.Ipv4_packet
module Arp = Ixnet.Arp_packet
module Seg = Ixnet.Tcp_segment

type t = {
  arp : Arp_cache.t;
  pool : Mempool.t;
  mac : Ixnet.Mac_addr.t;
  local_ip : Ixnet.Ip_addr.t;
  emit : Mbuf.t -> unit;
  (* Per-thread decoded-header scratch records (see lib/net
     decode_into): valid only while the current frame is being
     processed — nothing may hold one across a yield. *)
  eth_scratch : Eth.t;
  ip_scratch : Ipv4_packet.t;
  seg_scratch : Seg.t;
  c_rx_csum_drops : Metrics.counter;
  c_rx_other : Metrics.counter;
  c_arp_drops : Metrics.counter;
}

let create ~arp ~pool ~mac ~local_ip ~emit ~metrics ~prefix =
  let c name = Metrics.counter metrics (prefix ^ "." ^ name) in
  Metrics.probe metrics (prefix ^ ".pool.live") (fun () ->
      float_of_int (Mempool.live_count pool));
  Metrics.probe metrics (prefix ^ ".pool.provisioned") (fun () ->
      float_of_int (Mempool.provisioned pool));
  {
    arp;
    pool;
    mac;
    local_ip;
    emit;
    eth_scratch = Eth.scratch ();
    ip_scratch = Ipv4_packet.scratch ();
    seg_scratch = Seg.scratch ();
    c_rx_csum_drops = c "rx_csum_drops";
    c_rx_other = c "rx_other";
    c_arp_drops = c "arp_drops";
  }

let ip t = t.ip_scratch
let seg t = t.seg_scratch
let count_other t = Metrics.incr t.c_rx_other

(* ------------------------------------------------------------------ *)
(* Outbound                                                            *)

let send_arp t ~op ~target_ip ~target_mac =
  match Mempool.alloc t.pool with
  | None -> ()
  | Some mbuf ->
      Arp.write mbuf
        { Arp.op; sender_mac = t.mac; sender_ip = t.local_ip; target_mac; target_ip };
      Eth.prepend_fields mbuf
        ~dst:(if op = Arp.Request then Ixnet.Mac_addr.broadcast else target_mac)
        ~src:t.mac ~ethertype:Eth.Arp;
      t.emit mbuf

let output t ~protocol ~remote_ip mbuf =
  Ipv4_packet.prepend_fields mbuf ~src:t.local_ip ~dst:remote_ip ~protocol ~ttl:64 ~ecn:0
    ~payload_len:mbuf.Mbuf.len;
  match Arp_cache.find t.arp remote_ip with
  | mac ->
      Eth.prepend_fields mbuf ~dst:mac ~src:t.mac ~ethertype:Eth.Ipv4;
      true
  | exception Not_found ->
      if not (Arp_cache.park t.arp remote_ip mbuf) then Metrics.incr t.c_arp_drops;
      send_arp t ~op:Arp.Request ~target_ip:remote_ip ~target_mac:Ixnet.Mac_addr.zero;
      false

(* ------------------------------------------------------------------ *)
(* Inbound                                                             *)

let arp_input t mbuf =
  match Arp.decode mbuf with
  | Error _ -> ()
  | Ok arp ->
      Arp_cache.learn t.arp arp.Arp.sender_ip arp.Arp.sender_mac;
      (* Release anything parked on this resolution, oldest first. *)
      List.iter
        (fun parked ->
          Eth.prepend_fields parked ~dst:arp.Arp.sender_mac ~src:t.mac ~ethertype:Eth.Ipv4;
          t.emit parked)
        (Arp_cache.take_parked t.arp arp.Arp.sender_ip);
      if arp.Arp.op = Arp.Request && arp.Arp.target_ip = t.local_ip then
        send_arp t ~op:Arp.Reply ~target_ip:arp.Arp.sender_ip ~target_mac:arp.Arp.sender_mac

(* Every frame lands in exactly one accounting bucket: delivered to TCP
   (counted by the endpoint's [tcp.<i>.rx_segs]), dropped by validation
   ([rx_csum_drops] — runt frames, and the IPv4 header and TCP
   checksums verified by [decode_into]), or handled/dropped without a
   TCP delivery ([rx_other]: ARP, ICMP, UDP, firewall rejects, wrong
   destination).  The chaos audit's frame-conservation check
   ([Harness.Chaos]) relies on these buckets tiling the frames polled. *)
let rx t mbuf =
  if not (Eth.decode_into mbuf t.eth_scratch) then begin
    Metrics.incr t.c_rx_csum_drops;
    false
  end
  else
    match t.eth_scratch.Eth.ethertype with
    | Eth.Arp ->
        Metrics.incr t.c_rx_other;
        arp_input t mbuf;
        false
    | Eth.Other _ ->
        Metrics.incr t.c_rx_other;
        false
    | Eth.Ipv4 ->
        if not (Ipv4_packet.decode_into mbuf t.ip_scratch) then begin
          Metrics.incr t.c_rx_csum_drops;
          false
        end
        else if t.ip_scratch.Ipv4_packet.dst <> t.local_ip then begin
          Metrics.incr t.c_rx_other;
          false
        end
        else true

let decode_tcp t mbuf =
  let ip = t.ip_scratch in
  Seg.decode_into mbuf ~src:ip.Ipv4_packet.src ~dst:ip.Ipv4_packet.dst t.seg_scratch
  || begin
       Metrics.incr t.c_rx_csum_drops;
       false
     end

let deliver_tcp t ep mbuf =
  let ip = t.ip_scratch in
  Ixtcp.Tcp_endpoint.rx_segment ~ce:(ip.Ipv4_packet.ecn = Ipv4_packet.ce) ep
    ~src_ip:ip.Ipv4_packet.src t.seg_scratch mbuf

let input t ep mbuf =
  if rx t mbuf then
    match t.ip_scratch.Ipv4_packet.protocol with
    | Ipv4_packet.Tcp -> if decode_tcp t mbuf then deliver_tcp t ep mbuf
    | Ipv4_packet.Udp | Ipv4_packet.Icmp | Ipv4_packet.Other _ -> count_other t
