(* The parallel harness's determinism invariant: fanning a figure's
   independent data points over a domain pool (jobs=4) must produce
   bit-identical results to the sequential path (jobs=1) — same seeds,
   same points, same order.  Runs reduced slices of fig2/fig4/fig5 both
   ways and compares with structural equality at full float precision.

   [Stdlib.compare x y = 0] rather than [=]: netpipe points carry NaN
   when a transfer misses the horizon, and NaN <> NaN would mask a real
   comparison. *)

module E = Harness.Experiments

(* Tiny windows: this test is about equality, not model fidelity. *)
let () = Unix.putenv "IX_BENCH_SCALE" "0.05"

let check_bool = Alcotest.(check bool)

let bit_identical what a b =
  check_bool (what ^ ": parallel run bit-identical to sequential") true
    (Stdlib.compare a b = 0)

let test_fig2 () =
  let sizes = [ 1_024; 16_384 ] in
  let seq = E.fig2 ~jobs:1 ~sizes () in
  let par = E.fig2 ~jobs:4 ~sizes () in
  bit_identical "fig2" seq par

let test_fig4 () =
  let conn_counts = [ 100; 1_000 ] in
  let seq = E.fig4 ~jobs:1 ~conn_counts () in
  let par = E.fig4 ~jobs:4 ~conn_counts () in
  bit_identical "fig4" seq par

let test_fig5 () =
  let targets = [ 100e3 ] and profiles = [ Workloads.Size_dist.usr ] in
  let seq = E.fig5 ~jobs:1 ~targets ~profiles () in
  let par = E.fig5 ~jobs:4 ~targets ~profiles () in
  bit_identical "fig5" seq par

let test_perf_slices () =
  (* The perf harness's own invariant, in miniature: the metric
     snapshots of the perf slices must not depend on whether the slices
     run sequentially or concurrently on separate domains. *)
  let slices =
    [
      (fun () -> (E.perf_fig2_slice ~sizes:[ 1_024 ] ()).E.perf_snapshot);
      (fun () -> (E.perf_fig4_slice ~conns:1_000 ()).E.perf_snapshot);
    ]
  in
  let seq = List.map (fun f -> f ()) slices in
  let par = Engine.Domain_pool.map_jobs ~jobs:2 slices in
  bit_identical "perf snapshots" seq par

let () =
  Alcotest.run "determinism"
    [
      ( "parallel-vs-sequential",
        [
          Alcotest.test_case "fig2 reduced slice" `Quick test_fig2;
          Alcotest.test_case "fig4 reduced slice" `Quick test_fig4;
          Alcotest.test_case "fig5 reduced slice" `Quick test_fig5;
          Alcotest.test_case "perf slice snapshots" `Quick test_perf_slices;
        ] );
    ]
