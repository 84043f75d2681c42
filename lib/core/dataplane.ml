module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec
module Wheel = Timerwheel.Timer_wheel
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Seg = Ixnet.Tcp_segment
module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint

let log = Logs.Src.create "ix.dataplane" ~doc:"IX dataplane"

module Log = (val Logs.src_log log)

type costs = {
  poll_ns : int;
  rx_pkt_ns : int;
  proto_rx_ns : int;
  proto_tx_ns : int;
  tx_pkt_ns : int;
  event_ns : int;
  syscall_ns : int;
  timer_ns : int;
  copy_ns_per_kb : int;
}

let default_costs =
  {
    poll_ns = 60;
    rx_pkt_ns = 45;
    proto_rx_ns = 140;
    proto_tx_ns = 110;
    tx_pkt_ns = 35;
    event_ns = 15;
    syscall_ns = 25;
    timer_ns = 20;
    copy_ns_per_kb = 120;
  }

(* Events snapshot their fields when staged — the TCB's store slot may
   be recycled before the user phase drains them (teardown releases it
   immediately), so nothing may read back through the TCB at delivery
   time.  [Ix_api.event] values are staged directly (no intermediate
   record); the one field that can change between staging and delivery
   is the cookie, mutable for exactly that reason: events parked
   against a not-yet-accepted connection are patched when [Sys_accept]
   lands (see [patch_cookie]). *)

type state = Idle | Scheduled | Running

let no_thunk () = ()

(* Staged-TX vector: reused cycle to cycle so the per-packet path builds
   no lists.  Its own record so the host network layer's [emit] can
   stage into it before the dataplane record exists. *)
type tx_stage = {
  mutable buf : Mbuf.t array;
  mutable len : int;
  c_tx_pkts : Metrics.counter;
}

type t = {
  sim : Sim.t;
  id : int;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  queues : (Nic.t * Nic.rx_queue) list;
  tx_nic : Nic.t;
  net : Host_net.t;
  rcu : Rcu.manager;
  costs : costs;
  batcher : Batch.t;
  prot : Protection.t;
  pol : Policy.t;
  pcie : Ixhw.Pcie_model.t;
  cache : Ixhw.Cache_model.t option;
  conn_count : int ref;
  zero_copy : bool;
  polling : bool;
  interrupt_latency_ns : int;
  local_ip : Ixnet.Ip_addr.t;
  mutable ep : Tcp_endpoint.t option; (* set right after creation *)
  mutable app : Ix_api.event list -> unit;
  mutable staged_events : Ix_api.event list; (* reversed *)
  mutable unaccepted : (int, Ix_api.event list ref) Hashtbl.t;
  mutable staged_syscalls : (Ix_api.syscall * (int -> unit)) list; (* reversed *)
  (* Flow-group migration state.  While a group is inbound-parked the
     destination thread holds arriving TCP frames of that group aside
     (in arrival order) instead of delivering them to a flow table that
     does not yet own the TCBs; [replay] carries them into the next
     cycle once the handover lands.  [watchers] are drain predicates
     polled at the end of every run-to-completion cycle (the source
     side of a migration).  All three are empty outside migrations, so
     the steady-state hot path pays one null check. *)
  mutable parked_inbound : (int * Mbuf.t list ref) list; (* group -> reversed *)
  mutable replay : Mbuf.t list; (* in order *)
  mutable watchers : (unit -> bool) list;
  (* RX batch scratch, reused cycle to cycle.  [scratch_seed] is an
     inert mbuf used only to fill empty array slots. *)
  scratch_seed : Mbuf.t;
  mutable rx_scratch : Mbuf.t array;
  tx : tx_stage;
  mutable kernel_ns_acc : int;
  mutable user_ns_acc : int;
  (* Stage-span bookkeeping for [run_cycle]'s tracer marks: the cycle's
     start time and the end of the last span cut.  Plain mutable fields
     so the per-cycle hot path allocates no closure or ref for them. *)
  mutable cycle_start : int;
  mutable span_cursor : int;
  mutable state : state;
  mutable in_user_phase : bool;
  mutable idle_wakeup : Sim.handle option;
  (* Cached reschedule thunks ([run_cycle t] / [kick t]): installed on
     first use so the cycle loop does not allocate a closure per
     wakeup. *)
  mutable cycle_thunk : unit -> unit;
  mutable kick_thunk : unit -> unit;
  handles : (int, Tcb.t) Hashtbl.t;
  udp_binds : (int, unit) Hashtbl.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  c_cycles : Metrics.counter;
  c_rx_pkts : Metrics.counter;
  c_events : Metrics.counter;
  c_syscalls : Metrics.counter;
  c_nonresponsive : Metrics.counter;
  c_app_faults : Metrics.counter;
  user_timeout_ns : int;
  mutable ping_handler : src_ip:Ixnet.Ip_addr.t -> Ixnet.Icmp_packet.t -> unit;
  mutable background : (int * (unit -> unit)) option; (* slice_ns, work *)
  mutable background_slices : int;
}

let thread_id t = t.id
let core t = t.cpu
let endpoint t = Option.get t.ep
let batcher t = t.batcher
let protection t = t.prot
let policy t = t.pol
let now t = Sim.now t.sim
let charge_kernel t ns = t.kernel_ns_acc <- t.kernel_ns_acc + ns
let charge_user t ns = t.user_ns_acc <- t.user_ns_acc + ns

(* ------------------------------------------------------------------ *)
(* Outbound path: L4 payload -> IP -> ARP -> Ethernet -> staged TX     *)

let stage_tx tx mbuf =
  if tx.len = Array.length tx.buf then begin
    let capacity' = max 64 (2 * tx.len) in
    let buf' = Array.make capacity' mbuf in
    Array.blit tx.buf 0 buf' 0 tx.len;
    tx.buf <- buf'
  end;
  tx.buf.(tx.len) <- mbuf;
  tx.len <- tx.len + 1;
  Metrics.incr tx.c_tx_pkts

(* [mbuf] holds an L4 payload for [remote_ip]; frame it and stage it,
   or leave it parked on ARP resolution. *)
let send_ip t ~protocol ~remote_ip mbuf =
  if Host_net.output t.net ~protocol ~remote_ip mbuf then stage_tx t.tx mbuf

let output_raw t ~remote_ip mbuf =
  charge_kernel t t.costs.proto_tx_ns;
  if not t.zero_copy then
    charge_kernel t (t.costs.copy_ns_per_kb * mbuf.Mbuf.len / 1024);
  send_ip t ~protocol:Ixnet.Ipv4_packet.Tcp ~remote_ip mbuf

(* ------------------------------------------------------------------ *)
(* Event staging                                                       *)

let stage_event t tcb ev =
  match Hashtbl.find_opt t.unaccepted (Tcb.handle tcb) with
  | Some pending -> pending := ev :: !pending
  | None -> t.staged_events <- ev :: t.staged_events

(* [Sys_accept] assigns the user's cookie after events may already have
   been parked against the connection; retarget them on flush. *)
let patch_cookie (ev : Ix_api.event) cookie =
  match ev with
  | Ix_api.Ev_connected r -> r.cookie <- cookie
  | Ix_api.Ev_recv r -> r.cookie <- cookie
  | Ix_api.Ev_sent r -> r.cookie <- cookie
  | Ix_api.Ev_dead r -> r.cookie <- cookie
  | Ix_api.Ev_knock _ | Ix_api.Ev_udp_recv _ -> ()

let install_callbacks t tcb =
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_connected <-
    (fun ok ->
      stage_event t tcb
        (Ix_api.Ev_connected { cookie = Tcb.cookie tcb; handle = Tcb.handle tcb; ok }));
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      stage_event t tcb (Ix_api.Ev_recv { cookie = Tcb.cookie tcb; mbuf; off; len }));
  cbs.Tcb.on_sent <-
    (fun n ->
      stage_event t tcb
        (Ix_api.Ev_sent
           {
             cookie = Tcb.cookie tcb;
             bytes_sent = n;
             window_size = Tcb.rcv_window tcb;
           }));
  cbs.Tcb.on_closed <-
    (fun reason ->
      stage_event t tcb (Ix_api.Ev_dead { cookie = Tcb.cookie tcb; reason }))

(* ------------------------------------------------------------------ *)
(* Syscall execution (step 4)                                          *)

(* Raises [Not_found]; the syscall arms match on the exception rather
   than an option so hot-path lookups do not box the result. *)
let lookup_handle t handle = Hashtbl.find t.handles handle

let rss_suitable t ~remote_ip ~remote_port =
  (* §4.4: probe ephemeral ports until the *reply* direction RSS-hashes
     to one of this thread's queues. *)
  match t.queues with
  | [] -> fun _ -> true
  | queues ->
      fun port ->
        List.for_all
          (fun (nic, q) ->
            Nic.rss_queue_of_tuple nic ~src_ip:remote_ip ~dst_ip:t.local_ip
              ~src_port:remote_port ~dst_port:port
            = Nic.queue_index q)
          queues

let exec_syscall t (sc, on_result) =
  Metrics.incr t.c_syscalls;
  charge_kernel t t.costs.syscall_ns;
  match sc with
  | Ix_api.Sys_connect { cookie; dst_ip; dst_port } -> (
      let port_suitable = rss_suitable t ~remote_ip:dst_ip ~remote_port:dst_port in
      match
        Tcp_endpoint.connect (endpoint t) ~remote_ip:dst_ip ~remote_port:dst_port
          ~port_suitable ~cookie ()
      with
      | None -> on_result (-1)
      | Some tcb ->
          install_callbacks t tcb;
          Hashtbl.replace t.handles (Tcb.handle tcb) tcb;
          incr t.conn_count;
          on_result (Tcb.handle tcb))
  | Ix_api.Sys_accept { handle; cookie } -> (
      match lookup_handle t handle with
      | exception Not_found -> on_result (-1)
      | tcb ->
          Tcb.set_cookie tcb cookie;
          (match Hashtbl.find_opt t.unaccepted handle with
          | Some pending ->
              Hashtbl.remove t.unaccepted handle;
              (* Flush events buffered while unaccepted, oldest first;
                 they were staged before the cookie existed. *)
              List.iter
                (fun ev ->
                  patch_cookie ev cookie;
                  t.staged_events <- ev :: t.staged_events)
                (List.rev !pending)
          | None -> ());
          on_result 0)
  | Ix_api.Sys_sendv { handle; queue } -> (
      match lookup_handle t handle with
      | exception Not_found -> on_result (-1)
      | tcb ->
          let accepted = Tcp_conn.send_from tcb queue in
          if not t.zero_copy then
            charge_kernel t (t.costs.copy_ns_per_kb * accepted / 1024);
          on_result accepted)
  | Ix_api.Sys_recv_done { handle; bytes_acked } -> (
      match lookup_handle t handle with
      | exception Not_found -> on_result (-1)
      | tcb ->
          Tcp_conn.consume tcb bytes_acked;
          on_result 0)
  | Ix_api.Sys_close { handle } -> (
      match lookup_handle t handle with
      | exception Not_found -> on_result (-1)
      | tcb ->
          if Hashtbl.mem t.unaccepted handle then begin
            (* Rejecting a knock. *)
            Hashtbl.remove t.unaccepted handle;
            Tcp_conn.abort tcb
          end
          else Tcp_conn.close tcb;
          on_result 0)
  | Ix_api.Sys_abort { handle } -> (
      match lookup_handle t handle with
      | exception Not_found -> on_result (-1)
      | tcb ->
          Tcp_conn.abort tcb;
          on_result 0)
  | Ix_api.Sys_udp_sendv { src_port; dst_ip; dst_port; iovs } -> (
      match Mempool.alloc t.pool with
      | None -> on_result (-1)
      | Some mbuf ->
          let total = Iovec.total iovs in
          List.iter
            (fun (iov : Iovec.t) ->
              Mbuf.append_bytes mbuf iov.Iovec.buf iov.Iovec.off iov.Iovec.len)
            iovs;
          Ixnet.Udp_packet.prepend mbuf ~src:t.local_ip ~dst:dst_ip ~src_port
            ~dst_port;
          charge_kernel t t.costs.proto_tx_ns;
          send_ip t ~protocol:Ixnet.Ipv4_packet.Udp ~remote_ip:dst_ip mbuf;
          on_result total)

(* ------------------------------------------------------------------ *)
(* Inbound packet processing (step 2)                                  *)

(* ICMP echo: answered in the dataplane kernel (the paper implemented
   RFC-compliant ICMP alongside UDP and ARP). *)
let process_icmp t ~src_ip mbuf =
  if Ixnet.Icmp_packet.is_echo_request mbuf then begin
    (* Hot path: answer without decoding — one blit into the reply
       mbuf, no record or payload string. *)
    match Mempool.alloc t.pool with
    | None -> ()
    | Some reply ->
        Ixnet.Icmp_packet.reply_into mbuf ~into:reply;
        send_ip t ~protocol:Ixnet.Ipv4_packet.Icmp ~remote_ip:src_ip reply
  end
  else
    match Ixnet.Icmp_packet.decode mbuf with
    | Error _ -> ()
    | Ok reply -> t.ping_handler ~src_ip reply

(* A TCP frame belonging to a group that is mid-migration to this
   thread: hold it aside (in arrival order) until the TCBs arrive.  The
   frame keeps its reference across the park ([process_frame] decrefs on
   return; the replayed pass rebalances).  Bucket accounting is
   deferred to the replay pass, where the frame is processed for real. *)
let park_if_migrating t (ip : Ixnet.Ipv4_packet.t) (seg : Seg.t) mbuf =
  match t.queues with
  | [] -> false
  | (nic, _) :: _ -> (
      let group =
        Nic.rss_group_of_tuple nic ~src_ip:ip.Ixnet.Ipv4_packet.src
          ~dst_ip:ip.Ixnet.Ipv4_packet.dst ~src_port:seg.Seg.src_port
          ~dst_port:seg.Seg.dst_port
      in
      match List.assoc_opt group t.parked_inbound with
      | None -> false
      | Some frames ->
          Mbuf.incref mbuf;
          frames := mbuf :: !frames;
          true)

(* Protocol dispatch for a datagram [Host_net.rx] accepted; every
   outcome lands in one of the layer's accounting buckets (see
   [Host_net.rx]) or in the endpoint's [rx_segs]. *)
let process_ipv4 t mbuf =
  let ip = Host_net.ip t.net in
  match ip.Ixnet.Ipv4_packet.protocol with
  | Ixnet.Ipv4_packet.Tcp ->
      if Host_net.decode_tcp t.net mbuf then begin
        let seg = Host_net.seg t.net in
        if t.parked_inbound <> [] && park_if_migrating t ip seg mbuf then ()
        else if
          Policy.admit t.pol ~now:(now t) ~src_ip:ip.Ixnet.Ipv4_packet.src
            ~dst_port:seg.Seg.dst_port ~len:mbuf.Mbuf.len
        then Host_net.deliver_tcp t.net (endpoint t) mbuf
        else Host_net.count_other t.net
      end
  | Ixnet.Ipv4_packet.Icmp ->
      Host_net.count_other t.net;
      process_icmp t ~src_ip:ip.Ixnet.Ipv4_packet.src mbuf
  | Ixnet.Ipv4_packet.Udp ->
      Host_net.count_other t.net;
      (match
         Ixnet.Udp_packet.decode mbuf ~src:ip.Ixnet.Ipv4_packet.src
           ~dst:ip.Ixnet.Ipv4_packet.dst
       with
      | Error _ -> ()
      | Ok udp ->
          if
            Hashtbl.mem t.udp_binds udp.Ixnet.Udp_packet.dst_port
            && Policy.admit t.pol ~now:(now t)
                 ~src_ip:ip.Ixnet.Ipv4_packet.src
                 ~dst_port:udp.Ixnet.Udp_packet.dst_port ~len:mbuf.Mbuf.len
          then begin
            Mbuf.incref mbuf;
            t.staged_events <-
              Ix_api.Ev_udp_recv
                {
                  dst_port = udp.Ixnet.Udp_packet.dst_port;
                  src_ip = ip.Ixnet.Ipv4_packet.src;
                  src_port = udp.Ixnet.Udp_packet.src_port;
                  mbuf;
                  off = udp.Ixnet.Udp_packet.payload_off;
                  len = udp.Ixnet.Udp_packet.payload_len;
                }
              :: t.staged_events
          end)
  | Ixnet.Ipv4_packet.Other _ -> Host_net.count_other t.net

let process_frame t mbuf =
  charge_kernel t t.costs.proto_rx_ns;
  (match t.cache with
  | Some cm ->
      (* The model's figure is per message (~2 frames at the server). *)
      charge_kernel t
        (Ixhw.Cache_model.extra_ns_per_message cm ~conns:!(t.conn_count) / 2)
  | None -> ());
  if Host_net.rx t.net mbuf then process_ipv4 t mbuf;
  Mbuf.decref mbuf

(* ------------------------------------------------------------------ *)
(* The run-to-completion cycle (Fig. 1b)                               *)

let rx_pending t =
  List.fold_left (fun acc (_, q) -> acc + Nic.rx_pending q) 0 t.queues

let has_work t =
  rx_pending t > 0 || t.staged_events <> [] || t.staged_syscalls <> []
  || t.replay <> []

(* Pull a bounded batch off the RX rings, round-robin across queues,
   into [t.rx_scratch] starting at [filled]; replenish as we go. *)
let rec gather_rx t filled remaining = function
  | [] -> filled
  | (_, q) :: rest ->
      if remaining = 0 then filled
      else begin
        let taken =
          Nic.rx_burst_into q ~into:t.rx_scratch ~off:filled ~max:remaining
        in
        Nic.replenish q taken;
        gather_rx t (filled + taken) (remaining - taken) rest
      end

(* Cut a tracer stage span at the current charge watermark.  Spans tile
   [cycle_start, t_end] exactly — see the timeline note in [run_cycle]. *)
let mark t stage =
  let at = t.cycle_start + t.kernel_ns_acc + t.user_ns_acc in
  if at > t.span_cursor then
    Tracer.span t.tracer stage ~start:t.span_cursor ~stop:at;
  t.span_cursor <- at

let rec run_cycle t =
  t.state <- Running;
  (match t.idle_wakeup with
  | Some handle ->
      Sim.cancel t.sim handle;
      t.idle_wakeup <- None
  | None -> ());
  Metrics.incr t.c_cycles;
  t.kernel_ns_acc <- 0;
  t.user_ns_acc <- 0;
  let start = max (now t) (Cpu_core.free_at t.cpu) in
  (* Stage spans are cut wherever [mark] is called: charges land on the
     core as one kernel block then one user block, but attributing them
     in charge order gives a per-stage timeline whose spans tile
     [start, t_end] exactly — stage totals sum to the committed busy
     time by construction. *)
  t.cycle_start <- start;
  t.span_cursor <- start;
  (* --- (1) poll RX rings, take a bounded batch, replenish --- *)
  charge_kernel t t.costs.poll_ns;
  let budget = Batch.next_batch t.batcher ~pending:(rx_pending t) in
  if Array.length t.rx_scratch < budget then begin
    let scratch = Array.make (max 64 budget) t.scratch_seed in
    Array.blit t.rx_scratch 0 scratch 0 (Array.length t.rx_scratch);
    t.rx_scratch <- scratch
  end;
  let n_rx = gather_rx t 0 budget t.queues in
  (* Replenish doorbells are coalesced across queues: one charge for
     the burst's descriptor total, not one partial-batch write per
     queue (adaptive batching, §4.2 — doorbells are per burst). *)
  charge_kernel t (Ixhw.Pcie_model.replenish_cost_ns t.pcie ~descriptors:n_rx);
  Metrics.add t.c_rx_pkts n_rx;
  charge_kernel t (t.costs.rx_pkt_ns * n_rx);
  mark t Tracer.Rx_driver;
  (* --- (2) protocol processing, generating event conditions --- *)
  (* Frames parked during a flow-group migration replay first: they
     arrived before anything polled this cycle, and their TCBs are home
     now.  (They were counted into [rx_pkts] when originally polled;
     this pass lands them in their accounting bucket.) *)
  if t.replay <> [] then begin
    let parked = t.replay in
    t.replay <- [];
    List.iter (process_frame t) parked
  end;
  for i = 0 to n_rx - 1 do
    process_frame t t.rx_scratch.(i)
  done;
  mark t Tracer.Tcp_in;
  (* --- (3) user phase: deliver event conditions to the app --- *)
  let staged = t.staged_events in
  t.staged_events <- [];
  if staged <> [] then begin
    charge_kernel t (Protection.enter_user t.prot);
    mark t Tracer.Crossing;
    t.in_user_phase <- true;
    (* [staged] is in reverse arrival order (it was built as a stack);
       one [rev] restores arrival order — the staged values ARE the
       [Ix_api.event]s, nothing is re-materialized per event. *)
    let events = List.rev staged in
    let n_events = List.length events in
    Metrics.add t.c_events n_events;
    charge_user t (t.costs.event_ns * n_events);
    mark t Tracer.Event_delivery;
    (* §4.5 protection backstop: an exception escaping the user phase
       must not take the elastic thread down — the kernel regains
       control, counts the fault and keeps serving other flows.  (Libix
       additionally contains handler faults per event, aborting only
       the offending connection; this outer guard is the dataplane's
       own guarantee for apps driving [set_app] directly.) *)
    (try t.app events
     with exn ->
       Metrics.incr t.c_app_faults;
       Log.debug (fun m ->
           m "thread %d: user phase fault contained: %s" t.id
             (Printexc.to_string exn)));
    mark t Tracer.User_phase;
    t.in_user_phase <- false;
    charge_kernel t (Protection.enter_kernel t.prot);
    mark t Tracer.Crossing;
    (* §4.5: a timeout interrupt detects elastic threads that spend
       excessive time in user mode; we mark them non-responsive for the
       control plane. *)
    if t.user_ns_acc > t.user_timeout_ns then Metrics.incr t.c_nonresponsive
  end;
  (* --- (4) batched system calls --- *)
  let syscalls = List.rev t.staged_syscalls in
  t.staged_syscalls <- [];
  List.iter (exec_syscall t) syscalls;
  mark t Tracer.Syscall;
  (* --- (5) kernel timers --- *)
  charge_kernel t t.costs.timer_ns;
  Wheel.advance t.wheel ~now:(now t);
  mark t Tracer.Timer;
  (* --- (6) transmit --- *)
  let n_tx = t.tx.len in
  Batch.note_tx t.batcher n_tx;
  charge_kernel t (t.costs.tx_pkt_ns * n_tx);
  (* One doorbell write per TX burst, regardless of how many segments
     the burst carries.  [Batch] owns the ring decision: in fixed mode
     every burst rings; in adaptive mode congested bursts coalesce
     until a bound's worth of segments has accumulated. *)
  if Batch.doorbell_due t.batcher ~burst:n_tx then
    charge_kernel t (Ixhw.Pcie_model.doorbell_cost_ns t.pcie);
  mark t Tracer.Tx_driver;
  (* Commit costs to the core; effects land at cycle end. *)
  let t_mid = Cpu_core.charge t.cpu ~now:start Cpu_core.Kernel t.kernel_ns_acc in
  let t_end = Cpu_core.charge t.cpu ~now:t_mid Cpu_core.User t.user_ns_acc in
  let tx = t.tx in
  for i = 0 to n_tx - 1 do
    let mbuf = tx.buf.(i) in
    tx.buf.(i) <- t.scratch_seed;
    Nic.transmit_at t.tx_nic mbuf ~earliest:t_end
  done;
  (* Frames staged while transmitting (none today) slide to the front
     for the next cycle. *)
  if tx.len > n_tx then begin
    Array.blit tx.buf n_tx tx.buf 0 (tx.len - n_tx);
    Array.fill tx.buf (tx.len - n_tx) n_tx t.scratch_seed
  end;
  tx.len <- tx.len - n_tx;
  (* RCU quiescent point. *)
  Rcu.quiescent t.rcu ~thread:t.id;
  (* Migration drain watchers: the source side of a flow-group
     migration polls its drain predicate here, once per cycle, after
     the quiescent point (so an RCU grace period that ended in this
     cycle is visible).  A watcher returning true has completed its
     handover and is dropped. *)
  if t.watchers <> [] then
    t.watchers <- List.filter (fun w -> not (w ())) t.watchers;
  (* Loop or go idle. *)
  (if has_work t then begin
    t.state <- Scheduled;
    ignore (Sim.at t.sim t_end (cycle_thunk t))
  end
  else begin
    t.state <- Idle;
    arm_idle_wakeup t t_end;
    maybe_background t t_end
  end);

(* §4.1: background threads timeshare a hardware thread with the
   elastic work.  A slice runs only while the dataplane is otherwise
   idle; packets arriving during a slice are picked up at the next
   slice boundary — the (bounded) latency cost of timesharing. *)
and maybe_background t earliest =
  match t.background with
  | None -> ()
  | Some _ ->
      if t.state = Idle then begin
        t.state <- Scheduled;
        (match t.idle_wakeup with
        | Some handle ->
            Sim.cancel t.sim handle;
            t.idle_wakeup <- None
        | None -> ());
        let at = max (now t) earliest in
        ignore
          (Sim.at t.sim at (fun () ->
               t.state <- Idle;
               if has_work t || rx_pending t > 0 then kick t
               else begin
                 (* Re-read: the task may have been cleared meanwhile. *)
                 match t.background with
                 | None -> arm_idle_wakeup t (now t)
                 | Some (slice_ns, work) ->
                     t.background_slices <- t.background_slices + 1;
                     work ();
                     let finished =
                       Cpu_core.charge t.cpu ~now:(now t) Cpu_core.User slice_ns
                     in
                     Wheel.advance t.wheel ~now:(now t);
                     if has_work t then kick t
                     else begin
                       arm_idle_wakeup t finished;
                       maybe_background t finished
                     end
               end))
      end

and cycle_thunk t =
  if t.cycle_thunk == no_thunk then t.cycle_thunk <- (fun () -> run_cycle t);
  t.cycle_thunk

and kick_thunk t =
  if t.kick_thunk == no_thunk then t.kick_thunk <- (fun () -> kick t);
  t.kick_thunk

and arm_idle_wakeup t earliest =
  match Wheel.next_expiry t.wheel with
  | None -> ()
  | Some deadline ->
      let at = max deadline earliest in
      t.idle_wakeup <- Some (Sim.at t.sim at (kick_thunk t))

and kick t =
  match t.state with
  | Running | Scheduled -> ()
  | Idle ->
      t.state <- Scheduled;
      (match t.idle_wakeup with
      | Some handle ->
          Sim.cancel t.sim handle;
          t.idle_wakeup <- None
      | None -> ());
      let wakeup_cost = if t.polling then 0 else t.interrupt_latency_ns in
      let at = max (now t) (Cpu_core.free_at t.cpu) + wakeup_cost in
      ignore (Sim.at t.sim at (cycle_thunk t))

(* ------------------------------------------------------------------ *)

let set_app t f = t.app <- f

let udp_bind t ~port = Hashtbl.replace t.udp_binds port ()
let udp_unbind t ~port = Hashtbl.remove t.udp_binds port

let listen t ~port =
  Tcp_endpoint.listen (endpoint t) ~port ~on_accept:(fun tcb ->
      install_callbacks t tcb;
      Hashtbl.replace t.handles (Tcb.handle tcb) tcb;
      Hashtbl.replace t.unaccepted (Tcb.handle tcb) (ref []);
      t.staged_events <-
        Ix_api.Ev_knock
          {
            handle = Tcb.handle tcb;
            src_ip = Tcb.remote_ip tcb;
            src_port = Tcb.remote_port tcb;
            dst_port = Tcb.local_port tcb;
          }
        :: t.staged_events;
      incr t.conn_count)

let syscall t sc ~on_result =
  Protection.require t.prot Protection.User;
  t.staged_syscalls <- (sc, on_result) :: t.staged_syscalls

let flows t = Tcp_endpoint.connection_count (endpoint t)

(* Control-plane drain: forcibly reset every connection this thread
   still owns.  Collect first — [Tcp_conn.abort] unhooks the flow table
   through [on_teardown], which must not race the iteration.  The RSTs
   are staged TX frames, so kick a cycle to flush them. *)
let abort_all_connections t =
  let doomed = ref [] in
  Tcp_endpoint.iter_connections (endpoint t) (fun tcb -> doomed := tcb :: !doomed);
  List.iter Tcp_conn.abort !doomed;
  let n = List.length !doomed in
  if n > 0 then kick t;
  n

(* Hand one TCB to [dst]: flow-table eviction, handle transfer, env
   rebind (cancels and re-arms its timers on the destination wheel),
   callback reinstall, adoption.  The order matters: the handle must
   move with the TCB or a syscall staged against it would miss. *)
let hand_over_tcb t dst tcb =
  Tcp_endpoint.evict (endpoint t) tcb;
  (* A mid-handshake flow has no handle yet (the accept callback counts
     it in when the handshake completes, possibly on [dst]); inventing
     one here would make its eventual teardown count out a connection
     that was never counted in. *)
  let had_handle = Hashtbl.mem t.handles (Tcb.handle tcb) in
  Hashtbl.remove t.handles (Tcb.handle tcb);
  Tcp_conn.rebind tcb (Tcp_endpoint.env (endpoint dst));
  install_callbacks dst tcb;
  if had_handle then Hashtbl.replace dst.handles (Tcb.handle tcb) tcb;
  Tcp_endpoint.adopt (endpoint dst) tcb

let migrate_flows_to t dst =
  let moving = ref [] in
  Tcp_endpoint.iter_connections (endpoint t) (fun tcb -> moving := tcb :: !moving);
  List.iter (hand_over_tcb t dst) !moving;
  Log.debug (fun m -> m "thread %d migrated %d flows to thread %d" t.id (List.length !moving) dst.id)

(* ------------------------------------------------------------------ *)
(* Flow-group migration (the control plane drives this; see
   [Control_plane.migrate_flow_group] for the full protocol).          *)

let rss_group_of_flow t tcb =
  match t.queues with
  | [] -> -1
  | (nic, _) :: _ ->
      (* The group of the *receive* direction at this host; all NICs
         share the RSS key, so the first one answers for all. *)
      Nic.rss_group_of_tuple nic ~src_ip:(Tcb.remote_ip tcb) ~dst_ip:t.local_ip
        ~src_port:(Tcb.remote_port tcb) ~dst_port:(Tcb.local_port tcb)

let migrate_group_to t dst ~group =
  let moving = ref [] in
  Tcp_endpoint.iter_connections (endpoint t) (fun tcb ->
      if rss_group_of_flow t tcb = group then moving := tcb :: !moving);
  let cookies =
    List.rev_map
      (fun tcb ->
        hand_over_tcb t dst tcb;
        Tcb.cookie tcb)
      !moving
  in
  Log.debug (fun m ->
      m "thread %d migrated group %d (%d flows) to thread %d" t.id group
        (List.length cookies) dst.id);
  cookies

let park_inbound t ~group =
  if not (List.mem_assoc group t.parked_inbound) then
    t.parked_inbound <- (group, ref []) :: t.parked_inbound

let unpark_inbound t ~group =
  match List.assoc_opt group t.parked_inbound with
  | None -> 0
  | Some frames ->
      t.parked_inbound <- List.remove_assoc group t.parked_inbound;
      let ordered = List.rev !frames in
      t.replay <- t.replay @ ordered;
      kick t;
      List.length ordered

let rx_watermarks t =
  List.map (fun (_, q) -> Nic.rx_popped q + Nic.rx_pending q) t.queues

let drained_past t marks =
  List.for_all2 (fun (_, q) m -> Nic.rx_popped q >= m) t.queues marks
  && t.staged_events = []
  && t.staged_syscalls = []
  && Hashtbl.length t.unaccepted = 0

let add_cycle_watcher t w =
  t.watchers <- t.watchers @ [ w ];
  (* Run at least one cycle so an already-satisfied predicate fires
     even on an otherwise idle thread. *)
  kick t

let set_ping_handler t f = t.ping_handler <- f

let set_background_work t ~slice_ns work =
  t.background <- Some (slice_ns, work);
  maybe_background t (now t)

let clear_background_work t = t.background <- None
let background_slices t = t.background_slices

let ping t ~dst ~ident ~seq =
  match Mempool.alloc t.pool with
  | None -> ()
  | Some mbuf ->
      Ixnet.Icmp_packet.write mbuf
        { Ixnet.Icmp_packet.kind = Ixnet.Icmp_packet.Echo_request; ident; seq; data = "ix-ping" };
      send_ip t ~protocol:Ixnet.Ipv4_packet.Icmp ~remote_ip:dst mbuf;
      kick t

let in_app_context t = t.in_user_phase
let note_app_fault t = Metrics.incr t.c_app_faults
let app_faults t = Metrics.value t.c_app_faults
let pool t = t.pool
let cycles_run t = Metrics.value t.c_cycles
let events_delivered t = Metrics.value t.c_events
let syscalls_processed t = Metrics.value t.c_syscalls
let nonresponsive_marks t = Metrics.value t.c_nonresponsive
let metrics t = t.metrics
let tracer t = t.tracer

let create ~sim ~thread_id ~core ~local_ip ~queues ~tx_nic ~arp ~rcu
    ?(costs = default_costs) ?(batch_bound = 64) ?(batch_mode = Batch.Fixed)
    ?(config = Tcb.default_config)
    ?(zero_copy = true) ?(polling = true) ?cache ?(conn_count = ref 0)
    ?(pcie = Ixhw.Pcie_model.create ()) ?metrics ?(tracer_capacity = 4096)
    ?handle_alloc ~rng () =
  let pool = Mempool.create ~capacity:65536 ~name:(Printf.sprintf "dp%d" thread_id) () in
  let wheel = Wheel.create ~now:(Sim.now sim) () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let prefix = Printf.sprintf "dataplane.%d" thread_id in
  let c name = Metrics.counter metrics (prefix ^ "." ^ name) in
  let tx = { buf = [||]; len = 0; c_tx_pkts = c "tx_pkts" } in
  let net =
    Host_net.create ~arp ~pool ~mac:(Nic.mac tx_nic) ~local_ip ~emit:(stage_tx tx)
      ~metrics ~prefix
  in
  let t =
    {
      sim;
      id = thread_id;
      cpu = core;
      wheel;
      pool;
      queues;
      tx_nic;
      net;
      rcu;
      costs;
      batcher = Batch.create ~bound:batch_bound ~mode:batch_mode ();
      prot = Protection.create ();
      pol = Policy.create ();
      pcie;
      cache;
      conn_count;
      zero_copy;
      polling;
      interrupt_latency_ns = 3_000;
      local_ip;
      ep = None;
      app = ignore;
      staged_events = [];
      unaccepted = Hashtbl.create 64;
      staged_syscalls = [];
      parked_inbound = [];
      replay = [];
      watchers = [];
      scratch_seed = Mbuf.create ~size:1 ();
      rx_scratch = [||];
      tx;
      kernel_ns_acc = 0;
      user_ns_acc = 0;
      cycle_start = 0;
      span_cursor = 0;
      state = Idle;
      in_user_phase = false;
      idle_wakeup = None;
      cycle_thunk = no_thunk;
      kick_thunk = no_thunk;
      handles = Hashtbl.create 1024;
      udp_binds = Hashtbl.create 8;
      metrics;
      tracer = Tracer.create ~capacity:tracer_capacity ~thread:thread_id ();
      c_cycles = c "cycles";
      c_rx_pkts = c "rx_pkts";
      c_events = c "events";
      c_syscalls = c "syscalls";
      c_nonresponsive = c "nonresponsive";
      c_app_faults = c "app_faults";
      user_timeout_ns = 10_000_000;
      ping_handler = (fun ~src_ip:_ _ -> ());
      background = None;
      background_slices = 0;
    }
  in
  let ep =
    Tcp_endpoint.create
      ~now:(fun () -> Sim.now sim)
      ~wheel
      ~alloc:(fun () -> Mempool.alloc pool)
      ~output_raw:(fun ~remote_ip mbuf -> output_raw t ~remote_ip mbuf)
      ~rng ~local_ip ~config ~metrics
      ~metrics_prefix:(Printf.sprintf "tcp.%d" thread_id) ?handle_alloc ()
  in
  t.ep <- Some ep;
  (* Batch telemetry: sampled live at snapshot time so the gauges
     always reflect the bound in effect (which moves in adaptive
     mode) and the amortization actually achieved. *)
  let g name f = Metrics.probe metrics (Printf.sprintf "dataplane.%d.batch.%s" thread_id name) f in
  g "bound" (fun () -> float_of_int (Batch.bound t.batcher));
  g "mean" (fun () -> Batch.mean_batch t.batcher);
  g "mean_tx_burst" (fun () -> Batch.mean_tx_burst t.batcher);
  (* Chain teardown: the endpoint unhooks flow tables; we additionally
     drop the handle and count the connection out. *)
  let env = Tcp_endpoint.env ep in
  let endpoint_teardown = env.Tcb.on_teardown in
  env.Tcb.on_teardown <-
    (fun tcb ->
      endpoint_teardown tcb;
      if Hashtbl.mem t.handles (Tcb.handle tcb) then begin
        Hashtbl.remove t.handles (Tcb.handle tcb);
        Hashtbl.remove t.unaccepted (Tcb.handle tcb);
        decr t.conn_count
      end);
  (* Wire NIC queue notifications to kick the thread. *)
  List.iter (fun (_, q) -> Nic.set_notify q (fun () -> kick t)) t.queues;
  t

(* Userspace bootstrap: applications start life in ring 3 and issue
   their first batched syscalls (listen-side accepts excepted) before
   any packet has arrived.  This enters user mode, runs the setup
   closure, returns to the kernel and kicks the first cycle. *)
let bootstrap t f =
  ignore (Protection.enter_user t.prot);
  t.in_user_phase <- true;
  f ();
  t.in_user_phase <- false;
  ignore (Protection.enter_kernel t.prot);
  kick t
