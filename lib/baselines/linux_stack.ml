module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Metrics = Ixtelemetry.Metrics

type costs = {
  irq_entry_ns : int;
  softirq_pkt_ns : int;
  wakeup_ns : int;
  epoll_ns : int;
  epoll_event_ns : int;
  syscall_ns : int;
  copy_ns_per_kb : int;
  proto_tx_ns : int;
  tx_pkt_ns : int;
  itr_interval_ns : int;
}

let default_costs =
  {
    irq_entry_ns = 1_500;
    softirq_pkt_ns = 2_300;
    wakeup_ns = 7_000;
    epoll_ns = 1_200;
    epoll_event_ns = 300;
    syscall_ns = 1_100;
    copy_ns_per_kb = 250;
    proto_tx_ns = 1_000;
    tx_pkt_ns = 700;
    itr_interval_ns = 20_000;
  }

(* Linux TCP parameters: 200 ms minimum RTO, 40 ms delayed ACK floor,
   4 MB buffers (autotuning endpoint), buffered POSIX send. *)
let linux_tcp_config =
  {
    Ixtcp.Tcb.default_config with
    Ixtcp.Tcb.rcv_buf = 4 * 1024 * 1024;
    snd_buf = 4 * 1024 * 1024;
    wscale = 9;
    min_rto_ns = 200_000_000;
    delack_ns = 40_000_000;
    buffered_send = true;
  }

type core_ctx = {
  s : Sockets.t;
  costs : costs;
  cache : Ixhw.Cache_model.t option;
  mutable app_blocked : bool;
  mutable app_scheduled : bool;
  mutable irq_scheduled : bool;
  mutable last_irq : int;
  (* Cached wakeup thunks ([app_run ctx] / [do_irq ctx]), installed on
     first use — scheduling a wakeup is per-batch work and should not
     build a closure each time. *)
  mutable app_thunk : unit -> unit;
  mutable irq_thunk : unit -> unit;
  c_irqs : Metrics.counter;
  c_pkts : Metrics.counter;
  c_wakeups : Metrics.counter;
  (* NAPI polls through this reusable array ([Nic.rx_burst_into]); the
     seed mbuf is inert filler for unclaimed slots. *)
  rx_scratch : Mbuf.t array;
}

let no_thunk () = ()
let charge_k ctx ns = Sockets.charge ctx.s Cpu_core.Kernel ns

(* ------------------------------------------------------------------ *)
(* Application thread                                                  *)

let rec schedule_app ctx =
  if not ctx.app_scheduled then begin
    ctx.app_scheduled <- true;
    (* Wakeup: context switch into the blocked epoll thread. *)
    let sim = Sockets.sim ctx.s and cpu = Sockets.cpu ctx.s in
    let now = Sim.now sim in
    let resume =
      if ctx.app_blocked then begin
        Metrics.incr ctx.c_wakeups;
        Cpu_core.charge cpu ~now Cpu_core.Kernel ctx.costs.wakeup_ns
      end
      else max now (Cpu_core.free_at cpu)
    in
    if ctx.app_thunk == no_thunk then ctx.app_thunk <- (fun () -> app_run ctx);
    ignore (Sim.at sim resume ctx.app_thunk)
  end

and drain ctx =
  Sockets.run_round ctx.s;
  if Sockets.has_app_work ctx.s then drain ctx

and app_run ctx =
  ctx.app_scheduled <- false;
  ctx.app_blocked <- false;
  (* epoll_wait returns a batch of ready descriptors. *)
  charge_k ctx ctx.costs.epoll_ns;
  drain ctx;
  ctx.app_blocked <- true

(* ------------------------------------------------------------------ *)
(* Interrupt / softirq path                                            *)

(* The GRO flow key is the 12 bytes (src ip, dst ip, ports) starting
   at the IPv4 source address; packed into two immediate ints so the
   per-packet comparison allocates nothing. *)
let gro_key_a mbuf =
  let b = mbuf.Mbuf.buf and o = mbuf.Mbuf.off in
  (Bytes.get_uint16_be b (o + 26) lsl 32)
  lor (Bytes.get_uint16_be b (o + 28) lsl 16)
  lor Bytes.get_uint16_be b (o + 30)

let gro_key_b mbuf =
  let b = mbuf.Mbuf.buf and o = mbuf.Mbuf.off in
  (Bytes.get_uint16_be b (o + 32) lsl 32)
  lor (Bytes.get_uint16_be b (o + 34) lsl 16)
  lor Bytes.get_uint16_be b (o + 36)

let rec do_irq ctx =
  ctx.irq_scheduled <- false;
  ctx.last_irq <- Sim.now (Sockets.sim ctx.s);
  Metrics.incr ctx.c_irqs;
  charge_k ctx ctx.costs.irq_entry_ns;
  (* NAPI poll: drain the rings (64-packet budget per queue per pass).
     GRO: consecutive in-order segments of the same flow aggregate, so
     follow-up packets of a bulk stream cost a fraction of the first
     (this is what lets 2014-era Linux stream at several Gbit/s). *)
  napi ctx;
  (* Kernel timers piggyback on the softirq pass. *)
  Sockets.run_timers ctx.s

and napi ctx =
  let processed = napi_queues ctx 0 (Sockets.queues ctx.s) in
  if processed > 0 then napi ctx

and napi_queues ctx processed = function
  | [] -> processed
  | (_, q) :: rest ->
      let n = Nic.rx_burst_into q ~into:ctx.rx_scratch ~off:0 ~max:64 in
      Nic.replenish q n;
      (* GRO state threads through as plain int arguments; -1 means no
         previous flow (real keys are non-negative 48-bit packs). *)
      napi_burst ctx n 0 (-1) (-1);
      napi_queues ctx (processed + n) rest

and napi_burst ctx n i prev_a prev_b =
  if i < n then begin
    let mbuf = ctx.rx_scratch.(i) in
    Metrics.incr ctx.c_pkts;
    if mbuf.Mbuf.len >= 38 then begin
      let a = gro_key_a mbuf and b = gro_key_b mbuf in
      if a = prev_a && b = prev_b then
        charge_k ctx (ctx.costs.softirq_pkt_ns / 3)
      else charge_k ctx ctx.costs.softirq_pkt_ns;
      napi_charge_cache ctx;
      Sockets.rx_frame ctx.s mbuf;
      napi_burst ctx n (i + 1) a b
    end
    else begin
      charge_k ctx ctx.costs.softirq_pkt_ns;
      napi_charge_cache ctx;
      Sockets.rx_frame ctx.s mbuf;
      napi_burst ctx n (i + 1) (-1) (-1)
    end
  end

and napi_charge_cache ctx =
  match ctx.cache with
  | Some cm ->
      charge_k ctx
        (Ixhw.Cache_model.extra_ns_per_message cm ~conns:(Sockets.conn_count ctx.s) / 2)
  | None -> ()

(* Interrupt moderation: fire now if the line has been quiet, else
   defer to the adaptive interval boundary. *)
let on_nic_notify ctx =
  if not ctx.irq_scheduled then begin
    ctx.irq_scheduled <- true;
    let sim = Sockets.sim ctx.s in
    let at = max (Sim.now sim) (ctx.last_irq + ctx.costs.itr_interval_ns) in
    if ctx.irq_thunk == no_thunk then ctx.irq_thunk <- (fun () -> do_irq ctx);
    ignore (Sim.at sim at ctx.irq_thunk)
  end

(* ------------------------------------------------------------------ *)

let create ~sim ~host_id ~ip ~nics ~threads ?(costs = default_costs)
    ?(config = linux_tcp_config) ?cache ?metrics ~seed () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let emit cpu nic frame = Nic.transmit_at nic frame ~earliest:(Cpu_core.free_at cpu) in
  let design =
    {
      Sockets.name = "linux";
      domain = Cpu_core.Kernel;
      call_ns = costs.syscall_ns;
      calls_counter = "syscalls";
      copy_ns_per_kb = costs.copy_ns_per_kb;
      event_ns = costs.epoll_event_ns;
      proto_tx_ns = costs.proto_tx_ns;
      accept_is_call = true;
      connect_delivery = Sockets.Job;
      emit;
      (* qdisc + driver: paid for every segment TCP outputs, not for the
         frames the ARP layer sends. *)
      ship =
        (fun cpu nic frame ->
          ignore (Cpu_core.charge cpu ~now:(Sim.now sim) Cpu_core.Kernel costs.tx_pkt_ns);
          emit cpu nic frame);
    }
  in
  let rng = Engine.Rng.create ~seed:(seed + (host_id * 104729)) in
  let cores, stack =
    Sockets.create ~sim ~host_id ~ip ~nics ~threads ~design ~config ~metrics ~rng
  in
  Array.iteri
    (fun i s ->
      let c name = Metrics.counter metrics (Printf.sprintf "linux.%d.%s" i name) in
      let ctx =
        {
          s;
          costs;
          cache;
          app_blocked = true;
          app_scheduled = false;
          irq_scheduled = false;
          last_irq = min_int / 2;
          app_thunk = no_thunk;
          irq_thunk = no_thunk;
          c_irqs = c "irqs";
          c_pkts = c "pkts";
          c_wakeups = c "wakeups";
          rx_scratch = Array.make 64 (Mbuf.create ~size:1 ());
        }
      in
      Sockets.set_wake s (fun () -> schedule_app ctx);
      List.iter
        (fun (_, q) -> Nic.set_notify q (fun () -> on_nic_notify ctx))
        (Sockets.queues s))
    cores;
  stack
