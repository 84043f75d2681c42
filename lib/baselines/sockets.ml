module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec
module Wheel = Timerwheel.Timer_wheel
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics
module Host_net = Ix_core.Host_net

let net_reason : Tcb.close_reason -> Net_api.close_reason = function
  | Tcb.Normal -> Net_api.Normal
  | Tcb.Reset -> Net_api.Reset
  | Tcb.Timeout -> Net_api.Timeout
  | Tcb.Refused -> Net_api.Refused

type connect_delivery = Job | With_socket

type design = {
  name : string;
  domain : Cpu_core.domain;
  call_ns : int;
  calls_counter : string;
  copy_ns_per_kb : int;
  event_ns : int;
  proto_tx_ns : int;
  accept_is_call : bool;
  connect_delivery : connect_delivery;
  emit : Cpu_core.t -> Nic.t -> Mbuf.t -> unit;
  ship : Cpu_core.t -> Nic.t -> Mbuf.t -> unit;
}

type socket = {
  tcb : Tcb.t;
  conn : Net_api.conn;
  mutable handlers : Net_api.handlers;
  rx_buf : Buffer.t; (* receive queue, drained when the app reads *)
  mutable rx_bytes : int;
  mutable backlog : Iovec.t list; (* bytes send() took beyond the TCP budget *)
  mutable in_ready : bool;
  mutable sent_pending : int; (* acked bytes not yet reported to the app *)
  mutable connected_pending : bool option;
  mutable closed_reason : Net_api.close_reason option;
}

let no_thunk () = ()

type t = {
  sim : Sim.t;
  idx : int;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  net : Host_net.t;
  ep : Tcp_endpoint.t;
  queues : (Nic.t * Nic.rx_queue) list;
  design : design;
  conn_count : int ref;
  c_calls : Metrics.counter;
  mutable wake : unit -> unit;
  mutable ready : socket list; (* reversed: sockets with pending app work *)
  mutable jobs : (unit -> unit) list; (* reversed: deferred app closures *)
  mutable conn_seq : int;
  mutable timer_wakeup : Sim.handle option;
  mutable timer_thunk : unit -> unit;
}

let charge t domain ns = ignore (Cpu_core.charge t.cpu ~now:(Sim.now t.sim) domain ns)

let call t =
  Metrics.incr t.c_calls;
  charge t t.design.domain t.design.call_ns

let copy t bytes = charge t t.design.domain (t.design.copy_ns_per_kb * bytes / 1024)

let mark_ready t socket =
  if not socket.in_ready then begin
    socket.in_ready <- true;
    t.ready <- socket :: t.ready
  end

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)

let make_socket t tcb =
  t.conn_seq <- t.conn_seq + 1;
  let rec s =
    {
      tcb;
      conn =
        {
          Net_api.id = (t.idx * 1_000_000) + t.conn_seq;
          send =
            (fun data ->
              call t;
              copy t (String.length data);
              let iov = Iovec.of_string data in
              let accepted = Tcp_conn.send_iov tcb iov in
              if accepted < iov.Iovec.len then
                s.backlog <- s.backlog @ [ Iovec.sub iov accepted (iov.Iovec.len - accepted) ];
              true);
          close =
            (fun () ->
              call t;
              Tcp_conn.close tcb);
          abort =
            (fun () ->
              call t;
              Tcp_conn.abort tcb);
          peer = (Tcb.remote_ip tcb, Tcb.remote_port tcb);
          (* Baseline sockets never migrate: home is the owning thread. *)
          home = (fun () -> t.idx);
        };
      handlers = Net_api.null_handlers;
      rx_buf = Buffer.create 64;
      rx_bytes = 0;
      backlog = [];
      in_ready = false;
      sent_pending = 0;
      connected_pending = None;
      closed_reason = None;
    }
  in
  incr t.conn_count;
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      (* Appended to the receive queue; the copy to the app is charged
         when it reads. *)
      Buffer.add_subbytes s.rx_buf mbuf.Mbuf.buf off len;
      s.rx_bytes <- s.rx_bytes + len;
      Mbuf.decref mbuf;
      mark_ready t s;
      t.wake ());
  cbs.Tcb.on_sent <-
    (fun n ->
      s.sent_pending <- s.sent_pending + n;
      mark_ready t s;
      t.wake ());
  cbs.Tcb.on_closed <-
    (fun reason ->
      s.closed_reason <- Some (net_reason reason);
      decr t.conn_count;
      mark_ready t s;
      t.wake ());
  s

(* Trim [k] accepted bytes off the front of a backlog iovec list. *)
let rec drop_accepted k = function
  | [] -> []
  | (iov : Iovec.t) :: rest ->
      if iov.Iovec.len <= k then drop_accepted (k - iov.Iovec.len) rest
      else Iovec.sub iov k (iov.Iovec.len - k) :: rest

let service t s =
  s.in_ready <- false;
  charge t t.design.domain t.design.event_ns;
  (match s.connected_pending with
  | Some ok ->
      s.connected_pending <- None;
      s.handlers.Net_api.on_connected s.conn ~ok
  | None -> ());
  if s.rx_bytes > 0 then begin
    let data = Buffer.contents s.rx_buf in
    Buffer.clear s.rx_buf;
    s.rx_bytes <- 0;
    call t;
    copy t (String.length data);
    Tcp_conn.consume s.tcb (String.length data);
    s.handlers.Net_api.on_data s.conn data
  end;
  if s.sent_pending > 0 then begin
    let n = s.sent_pending in
    s.sent_pending <- 0;
    (* Flush backlog the TCP budget previously refused. *)
    if s.backlog <> [] then begin
      let iovs = s.backlog in
      s.backlog <- [];
      s.backlog <- drop_accepted (Tcp_conn.send s.tcb iovs) iovs
    end;
    s.handlers.Net_api.on_sent s.conn n
  end;
  match s.closed_reason with
  | Some reason ->
      s.closed_reason <- None;
      s.handlers.Net_api.on_closed s.conn reason
  | None -> ()

let run_round t =
  let ready = List.rev t.ready in
  t.ready <- [];
  let jobs = List.rev t.jobs in
  t.jobs <- [];
  List.iter (fun job -> job ()) jobs;
  List.iter (service t) ready

let has_app_work t = t.ready <> [] || t.jobs <> []

let connect t ~ip:dst_ip ~port handlers =
  let job () =
    let port_suitable p =
      (* RFS-perfect tuning: the reply lands on this core's queue. *)
      List.for_all
        (fun (nic, q) ->
          Nic.rss_queue_of_tuple nic ~src_ip:dst_ip ~dst_ip:(Tcp_endpoint.local_ip t.ep)
            ~src_port:port ~dst_port:p
          = Nic.queue_index q)
        t.queues
    in
    call t;
    match
      Tcp_endpoint.connect t.ep ~remote_ip:dst_ip ~remote_port:port ~port_suitable ~cookie:0 ()
    with
    | None ->
        (* Ephemeral ports exhausted: surface as a failed connect. *)
        let dead_conn =
          {
            Net_api.id = -1;
            send = (fun _ -> false);
            close = ignore;
            abort = ignore;
            peer = (dst_ip, port);
            home = (fun () -> t.idx);
          }
        in
        handlers.Net_api.on_connected dead_conn ~ok:false
    | Some tcb ->
        let s = make_socket t tcb in
        s.handlers <- handlers;
        tcb.Tcb.callbacks.Tcb.on_connected <-
          (fun ok ->
            (match t.design.connect_delivery with
            | Job -> t.jobs <- (fun () -> s.handlers.Net_api.on_connected s.conn ~ok) :: t.jobs
            | With_socket -> s.connected_pending <- Some ok);
            mark_ready t s;
            t.wake ())
  in
  t.jobs <- job :: t.jobs;
  t.wake ()

(* ------------------------------------------------------------------ *)
(* Kernel side                                                         *)

let rx_frame t mbuf =
  Host_net.input t.net t.ep mbuf;
  Mbuf.decref mbuf

let rec run_timers t =
  Wheel.advance t.wheel ~now:(Sim.now t.sim);
  arm_timer_wakeup t;
  if t.ready <> [] then t.wake ()

and arm_timer_wakeup t =
  (match t.timer_wakeup with
  | Some handle ->
      Sim.cancel t.sim handle;
      t.timer_wakeup <- None
  | None -> ());
  match Wheel.next_expiry t.wheel with
  | None -> ()
  | Some deadline ->
      let at = max deadline (Sim.now t.sim) in
      if t.timer_thunk == no_thunk then t.timer_thunk <- (fun () -> run_timers t);
      t.timer_wakeup <- Some (Sim.at t.sim at t.timer_thunk)

(* ------------------------------------------------------------------ *)

let create ~sim ~host_id ~ip ~nics ~threads ~design ~config ~metrics ~rng =
  (* One ARP table per host.  No thread reports RCU quiescence here, so
     a superseded table version retires at once. *)
  let arp = Ix_core.Arp_cache.create (Ix_core.Rcu.create_manager ~threads:0) in
  let conn_count = ref 0 in
  (* One flow-handle allocator per stack, shared across its contexts,
     owned by this sim. *)
  let handle_alloc = ref 0 in
  let contexts =
    Array.init threads (fun i ->
        let cpu = Cpu_core.create ~id:((host_id * 100) + i) in
        let wheel = Wheel.create ~now:(Sim.now sim) () in
        let pool =
          Mempool.create ~capacity:65536 ~name:(Printf.sprintf "%s%d" design.name i) ()
        in
        let tx_nic = nics.(i mod Array.length nics) in
        let prefix = Printf.sprintf "%s.%d" design.name i in
        let net =
          Host_net.create ~arp ~pool ~mac:(Nic.mac tx_nic) ~local_ip:ip
            ~emit:(design.emit cpu tx_nic) ~metrics ~prefix
        in
        (* TCP output runs in kernel context wherever it was triggered
           (socket call, received ACK, timer). *)
        let output_raw ~remote_ip mbuf =
          ignore (Cpu_core.charge cpu ~now:(Sim.now sim) Cpu_core.Kernel design.proto_tx_ns);
          if Host_net.output net ~protocol:Ixnet.Ipv4_packet.Tcp ~remote_ip mbuf then
            design.ship cpu tx_nic mbuf
        in
        let ep =
          Tcp_endpoint.create
            ~now:(fun () -> Sim.now sim)
            ~wheel
            ~alloc:(fun () -> Mempool.alloc pool)
            ~output_raw ~rng:(Engine.Rng.split rng) ~local_ip:ip ~config ~metrics
            ~metrics_prefix:(Printf.sprintf "tcp.%d" i) ~handle_alloc ()
        in
        {
          sim;
          idx = i;
          cpu;
          wheel;
          net;
          ep;
          queues = Array.to_list (Array.map (fun nic -> (nic, Nic.queue nic i)) nics);
          design;
          conn_count;
          c_calls = Metrics.counter metrics (prefix ^ "." ^ design.calls_counter);
          wake = ignore;
          ready = [];
          jobs = [];
          conn_seq = 0;
          timer_wakeup = None;
          timer_thunk = no_thunk;
        })
  in
  Array.iter (fun nic -> Nic.set_indirection nic (fun group -> group mod threads)) nics;
  let listen ~port acceptor =
    Array.iter
      (fun t ->
        Tcp_endpoint.listen t.ep ~port ~on_accept:(fun tcb ->
            let s = make_socket t tcb in
            if t.design.accept_is_call then call t;
            s.handlers <- acceptor ~thread:t.idx s.conn))
      contexts
  in
  let run_app ~thread f =
    let t = contexts.(thread) in
    t.jobs <- f :: t.jobs;
    t.wake ()
  in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 contexts in
  Metrics.probe metrics "kernel_share" (fun () ->
      let k = sum (fun t -> Cpu_core.kernel_ns t.cpu) in
      let u = sum (fun t -> Cpu_core.user_ns t.cpu) in
      if k + u = 0 then 0. else float_of_int k /. float_of_int (k + u));
  Metrics.probe metrics "busy_ns" (fun () ->
      float_of_int (sum (fun t -> Cpu_core.busy_ns_total t.cpu)));
  ( contexts,
    {
      Net_api.name = design.name;
      threads = Net_api.static_census threads;
      connect = (fun ~thread -> connect contexts.(thread));
      listen;
      run_app;
      charge_app = (fun ~thread ns -> charge contexts.(thread) Cpu_core.User ns);
      metrics = (fun () -> Metrics.snapshot metrics);
      conn_count = (fun () -> sum (fun t -> Tcp_endpoint.connection_count t.ep));
    } )

let set_wake t f = t.wake <- f
let sim t = t.sim
let cpu t = t.cpu
let queues t = t.queues
let conn_count t = !(t.conn_count)
