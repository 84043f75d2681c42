(* ixsim micro: Bechamel microbenchmarks of the hot-path primitives
   (Toeplitz, checksum, timing wheel, mempool, histogram, event queue,
   TCP segment codec), printed in ns/op. *)

let run () =
  let open Bechamel in
  let open Toolkit in
  let mbuf = Ixmem.Mbuf.create () in
  Ixmem.Mbuf.append mbuf (String.make 1400 'x');
  let seg_mbuf = Ixmem.Mbuf.create () in
  let ip_a = Ixnet.Ip_addr.of_octets 10 0 0 1
  and ip_b = Ixnet.Ip_addr.of_octets 10 0 0 2 in
  let test_toeplitz =
    Test.make ~name:"toeplitz_hash_tuple"
      (Staged.stage (fun () ->
           ignore
             (Ixhw.Toeplitz.hash_tuple ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234
                ~dst_port:80 ())))
  in
  let test_checksum =
    Test.make ~name:"checksum_1400B"
      (Staged.stage (fun () ->
           ignore (Ixnet.Checksum.compute mbuf.Ixmem.Mbuf.buf ~off:0 ~len:1400)))
  in
  let wheel = Timerwheel.Timer_wheel.create ~now:0 () in
  let test_wheel =
    Test.make ~name:"timer_wheel_schedule_cancel"
      (Staged.stage (fun () ->
           let t = Timerwheel.Timer_wheel.schedule wheel ~deadline:1_000_000 ignore in
           Timerwheel.Timer_wheel.cancel wheel t))
  in
  let pool = Ixmem.Mempool.create ~name:"bench" () in
  let test_mempool =
    Test.make ~name:"mempool_alloc_free"
      (Staged.stage (fun () ->
           match Ixmem.Mempool.alloc pool with
           | Some m -> Ixmem.Mbuf.decref m
           | None -> ()))
  in
  let hist = Ixtelemetry.Log_hist.create () in
  let test_histogram =
    Test.make ~name:"histogram_record"
      (Staged.stage (fun () -> Ixtelemetry.Log_hist.record hist 123_456))
  in
  let q = Engine.Event_queue.create () in
  let test_event_queue =
    Test.make ~name:"event_queue_push_pop"
      (Staged.stage (fun () ->
           Engine.Event_queue.push q ~time:42 ();
           ignore (Engine.Event_queue.pop q)))
  in
  let test_tcp_encode =
    Test.make ~name:"tcp_segment_encode"
      (Staged.stage (fun () ->
           Ixmem.Mbuf.reset seg_mbuf;
           Ixmem.Mbuf.append seg_mbuf "payload-payload-payload";
           Ixnet.Tcp_segment.prepend seg_mbuf ~src:ip_a ~dst:ip_b
             {
               Ixnet.Tcp_segment.src_port = 1;
               dst_port = 2;
               seq = 100;
               ack = 200;
               syn = false;
               ack_flag = true;
               fin = false;
               rst = false;
               psh = true;
               ece = false;
               cwr = false;
               window = 1000;
               mss = None;
               wscale = None;
               sack = None;
               payload_off = 0;
               payload_len = 0;
             }))
  in
  let tests =
    Test.make_grouped ~name:"hot-path"
      [
        test_toeplitz;
        test_checksum;
        test_wheel;
        test_mempool;
        test_histogram;
        test_event_queue;
        test_tcp_encode;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let results = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  Printf.printf "\n== Microbenchmarks (ns/op) ==\n";
  List.iter
    (fun (name, result) ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-40s %10.1f ns/op\n" name est
      | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare results)
