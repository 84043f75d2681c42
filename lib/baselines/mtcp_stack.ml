module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Metrics = Ixtelemetry.Metrics

type costs = {
  stack_pkt_ns : int;
  proto_tx_ns : int;
  tx_pkt_ns : int;
  api_call_ns : int;
  copy_ns_per_kb : int;
  app_event_ns : int;
  batch_interval_ns : int;
}

let default_costs =
  {
    stack_pkt_ns = 550;
    proto_tx_ns = 400;
    tx_pkt_ns = 150;
    api_call_ns = 120;
    copy_ns_per_kb = 200;
    app_event_ns = 60;
    batch_interval_ns = 40_000;
  }

(* mTCP keeps its own timers; its RTO floor is coarser than IX's but it
   bypasses the kernel's 200 ms floor. *)
let mtcp_tcp_config =
  {
    Ixtcp.Tcb.default_config with
    Ixtcp.Tcb.rcv_buf = 1 lsl 20;
    snd_buf = 1 lsl 20;
    min_rto_ns = 10_000_000;
    delack_ns = 1_000_000;
    buffered_send = true;
  }

type core_ctx = {
  s : Sockets.t;
  costs : costs;
  mutable round_scheduled : bool;
  mutable stack_scheduled : bool;
  c_rounds : Metrics.counter;
  c_pkts : Metrics.counter;
  (* Stack-thread poll fills this reusable array ([Nic.rx_burst_into]);
     the seed mbuf is inert filler for unclaimed slots. *)
  rx_scratch : Mbuf.t array;
}

(* ---- app rounds: batch exchange every interval ---- *)

let rec schedule_round ctx =
  if not ctx.round_scheduled then begin
    ctx.round_scheduled <- true;
    let sim = Sockets.sim ctx.s in
    let at = Sim.now sim + ctx.costs.batch_interval_ns in
    ignore (Sim.at sim at (fun () -> app_round ctx))
  end

and app_round ctx =
  ctx.round_scheduled <- false;
  Metrics.incr ctx.c_rounds;
  Sockets.run_round ctx.s;
  if Sockets.has_app_work ctx.s then schedule_round ctx

(* ---- stack thread: polls queues, processes immediately ---- *)

let stack_poll ctx =
  ctx.stack_scheduled <- false;
  List.iter
    (fun (_, q) ->
      let n = Nic.rx_burst_into q ~into:ctx.rx_scratch ~off:0 ~max:256 in
      Nic.replenish q n;
      for i = 0 to n - 1 do
        Metrics.incr ctx.c_pkts;
        Sockets.charge ctx.s Cpu_core.Kernel ctx.costs.stack_pkt_ns;
        Sockets.rx_frame ctx.s ctx.rx_scratch.(i)
      done)
    (Sockets.queues ctx.s);
  Sockets.run_timers ctx.s

let on_nic_notify ctx =
  (* The dedicated stack thread polls; it notices new frames almost
     immediately. *)
  if not ctx.stack_scheduled then begin
    ctx.stack_scheduled <- true;
    ignore (Sim.after (Sockets.sim ctx.s) 500 (fun () -> stack_poll ctx))
  end

let create ~sim ~host_id ~ip ~nics ~threads ?(costs = default_costs)
    ?(config = mtcp_tcp_config) ?metrics ~seed () =
  if Array.length nics > 1 then
    invalid_arg "Mtcp_stack.create: mTCP does not support NIC bonding";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  (* Frames leave at core-free time plus half a batching interval: the
     stack thread picks up the app's command queue on its next pass. *)
  let tx_frame cpu nic frame =
    ignore (Cpu_core.charge cpu ~now:(Sim.now sim) Cpu_core.Kernel costs.tx_pkt_ns);
    Nic.transmit_at nic frame ~earliest:(Cpu_core.free_at cpu + (costs.batch_interval_ns / 2))
  in
  let design =
    {
      Sockets.name = "mtcp";
      domain = Cpu_core.User;
      call_ns = costs.api_call_ns;
      calls_counter = "api_calls";
      copy_ns_per_kb = costs.copy_ns_per_kb;
      event_ns = costs.app_event_ns;
      proto_tx_ns = costs.proto_tx_ns;
      accept_is_call = false;
      connect_delivery = Sockets.With_socket;
      emit = tx_frame;
      ship = tx_frame;
    }
  in
  let rng = Engine.Rng.create ~seed:(seed + (host_id * 13007)) in
  let cores, stack =
    Sockets.create ~sim ~host_id ~ip ~nics ~threads ~design ~config ~metrics ~rng
  in
  Array.iteri
    (fun i s ->
      let c name = Metrics.counter metrics (Printf.sprintf "mtcp.%d.%s" i name) in
      let ctx =
        {
          s;
          costs;
          round_scheduled = false;
          stack_scheduled = false;
          c_rounds = c "rounds";
          c_pkts = c "pkts";
          rx_scratch = Array.make 256 (Mbuf.create ~size:1 ());
        }
      in
      Sockets.set_wake s (fun () -> schedule_round ctx);
      List.iter
        (fun (_, q) -> Nic.set_notify q (fun () -> on_nic_notify ctx))
        (Sockets.queues s))
    cores;
  stack
