(* Tests for mbufs, mempools and iovecs. *)

module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Mbuf ---------------- *)

let test_mbuf_append_payload () =
  let m = Mbuf.create () in
  Mbuf.append m "hello ";
  Mbuf.append m "world";
  Alcotest.(check string) "payload" "hello world" (Mbuf.payload m);
  check_int "len" 11 m.Mbuf.len

let test_mbuf_prepend_adjust () =
  let m = Mbuf.create () in
  Mbuf.append m "payload";
  let off = Mbuf.prepend m 4 in
  Bytes.blit_string "HDR:" 0 m.Mbuf.buf off 4;
  Alcotest.(check string) "with header" "HDR:payload" (Mbuf.payload m);
  Mbuf.adjust m 4;
  Alcotest.(check string) "header consumed" "payload" (Mbuf.payload m)

let test_mbuf_headroom_exhaustion () =
  let m = Mbuf.create () in
  Alcotest.check_raises "prepend beyond headroom"
    (Invalid_argument "Mbuf.prepend: no headroom") (fun () ->
      ignore (Mbuf.prepend m (Mbuf.headroom + 1)))

let test_mbuf_tailroom_exhaustion () =
  let m = Mbuf.create ~size:256 () in
  Alcotest.check_raises "append beyond capacity"
    (Invalid_argument "Mbuf.append: no tailroom") (fun () ->
      Mbuf.append m (String.make 300 'x'))

let test_mbuf_refcount () =
  let m = Mbuf.create () in
  let freed = ref 0 in
  m.Mbuf.on_free <- (fun _ -> incr freed);
  Mbuf.incref m;
  Mbuf.decref m;
  check_int "still held" 0 !freed;
  Mbuf.decref m;
  check_int "freed once" 1 !freed;
  Alcotest.check_raises "double free detected"
    (Invalid_argument "Mbuf.decref: refcount already zero") (fun () ->
      Mbuf.decref m)

(* ---------------- Mempool ---------------- *)

let test_mempool_alloc_free_cycle () =
  let pool = Mempool.create ~capacity:64 ~name:"t" () in
  let m = Option.get (Mempool.alloc pool) in
  check_int "live" 1 (Mempool.live_count pool);
  Mbuf.decref m;
  check_int "released" 0 (Mempool.live_count pool);
  let m2 = Option.get (Mempool.alloc pool) in
  check_bool "recycled object is fresh" true (m2.Mbuf.len = 0 && m2.Mbuf.refcount = 1);
  Mbuf.decref m2

let test_mempool_exhaustion () =
  let pool = Mempool.create ~capacity:5 ~name:"small" () in
  let taken = List.init 5 (fun _ -> Option.get (Mempool.alloc pool)) in
  Alcotest.(check (option unit))
    "exhausted" None
    (Option.map ignore (Mempool.alloc pool));
  check_int "failure recorded" 1 (Mempool.stat_failures pool);
  check_int "never past capacity" 5 (Mempool.provisioned pool);
  Mbuf.decref (List.hd taken);
  check_bool "recovers after a free" true (Option.is_some (Mempool.alloc pool));
  check_int "recovery reuses the freed mbuf" 5 (Mempool.provisioned pool)

let test_mempool_stats () =
  let pool = Mempool.create ~capacity:16 ~name:"s" () in
  for _ = 1 to 10 do
    Mbuf.decref (Option.get (Mempool.alloc pool))
  done;
  check_int "allocs counted" 10 (Mempool.stat_allocs pool);
  Alcotest.(check string) "name" "s" (Mempool.name pool)

(* Mbufs are created on first use: a huge pool costs only its working
   set, and recycled buffers come back before any new one is made. *)
let test_mempool_first_use () =
  let pool = Mempool.create ~capacity:65536 ~name:"lazy" () in
  check_int "nothing before the first alloc" 0 (Mempool.provisioned pool);
  let take () = Option.get (Mempool.alloc pool) in
  let held = List.init 3 (fun _ -> take ()) in
  check_int "three concurrent allocs" 3 (Mempool.provisioned pool);
  List.iter Mbuf.decref held;
  let again = List.init 3 (fun _ -> take ()) in
  check_int "reuse, no new mbufs" 3 (Mempool.provisioned pool);
  check_int "live" 3 (Mempool.live_count pool);
  List.iter Mbuf.decref again

let test_mempool_lifo () =
  let pool = Mempool.create ~capacity:64 ~name:"lifo" () in
  let a = Option.get (Mempool.alloc pool) in
  let b = Option.get (Mempool.alloc pool) in
  Mbuf.decref a;
  Mbuf.decref b;
  check_bool "last released comes back first" true (Option.get (Mempool.alloc pool) == b);
  check_bool "then the one before" true (Option.get (Mempool.alloc pool) == a)

let prop_mempool_no_leak =
  QCheck.Test.make ~name:"mempool conserves objects over random alloc/free" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let pool = Mempool.create ~capacity:32 ~name:"p" () in
      let held = ref [] in
      List.iter
        (fun alloc ->
          if alloc then begin
            match Mempool.alloc pool with
            | Some m -> held := m :: !held
            | None -> ()
          end
          else begin
            match !held with
            | [] -> ()
            | m :: rest ->
                held := rest;
                Mbuf.decref m
          end)
        ops;
      Mempool.live_count pool = List.length !held)

(* ---------------- Iovec ---------------- *)

let test_iovec_total_sub () =
  let iov = Iovec.of_string "hello world" in
  check_int "total sums slices" 22 (Iovec.total [ iov; iov ]);
  let sub = Iovec.sub iov 6 5 in
  let out = Bytes.create 5 in
  Iovec.blit sub ~src_off:0 ~dst:out ~dst_off:0 ~len:5;
  Alcotest.(check string) "sub slice" "world" (Bytes.to_string out)

let test_iovec_sub_bounds () =
  let iov = Iovec.of_string "abc" in
  Alcotest.check_raises "sub out of range" (Invalid_argument "Iovec.sub")
    (fun () -> ignore (Iovec.sub iov 1 3))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "mbuf",
        [
          Alcotest.test_case "append/payload" `Quick test_mbuf_append_payload;
          Alcotest.test_case "prepend/adjust" `Quick test_mbuf_prepend_adjust;
          Alcotest.test_case "headroom bound" `Quick test_mbuf_headroom_exhaustion;
          Alcotest.test_case "tailroom bound" `Quick test_mbuf_tailroom_exhaustion;
          Alcotest.test_case "refcount & double free" `Quick test_mbuf_refcount;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "alloc/free cycle" `Quick test_mempool_alloc_free_cycle;
          Alcotest.test_case "exhaustion & recovery" `Quick test_mempool_exhaustion;
          Alcotest.test_case "statistics" `Quick test_mempool_stats;
          Alcotest.test_case "mbufs created on first use" `Quick test_mempool_first_use;
          Alcotest.test_case "LIFO reuse" `Quick test_mempool_lifo;
          qt prop_mempool_no_leak;
        ] );
      ( "iovec",
        [
          Alcotest.test_case "total and sub" `Quick test_iovec_total_sub;
          Alcotest.test_case "sub bounds checked" `Quick test_iovec_sub_bounds;
        ] );
    ]
