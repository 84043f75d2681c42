(* ixsim perf: fixed-seed regression slices -> BENCH_PERF.json.

   Times each slice of [Harness.Experiments] (fig2, fig4, fig5, fig3a,
   migration, conn-scale, batch-sweep), checks same-seed and parallel
   snapshot identity, and runs the million-connection conn-scale memory
   gates.  [--smoke] shrinks every slice and adds the JSON, hit-counter
   and fast-path-off checks that runtest relies on. *)

module H = Harness.Experiments

(* A minimal JSON reader — just enough for the perf-smoke check that
   the emitted file is well-formed (no JSON library in the tree). *)
let json_parses (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else raise Exit in
  let literal lit =
    String.iter (fun c -> if peek () = Some c then advance () else raise Exit) lit
  in
  let str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some _ ->
              advance ();
              go ()
          | None -> raise Exit)
      | Some _ ->
          advance ();
          go ()
      | None -> raise Exit
    in
    go ()
  in
  let number () =
    let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    let rec go () =
      match peek () with
      | Some c when is_num c ->
          advance ();
          go ()
      | _ -> ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> raise Exit
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> raise Exit
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

type perf_row = {
  row_name : string;
  wall_s : float;
  events : int;
  events_per_sec : float;
  minor_words_per_event : float;
  fast_hits : int;
  slow_hits : int;
  snapshot : string;
}

let run_slice f =
  Gc.compact ();
  (* [Gc.minor_words ()], not [quick_stat]: in native code the stat
     record's counter only advances at minor collections, so with
     ixsim's 32 MB nursery a slice allocating less than that would
     read as exactly zero. *)
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let slice = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  let events = slice.H.perf_events in
  {
    row_name = slice.H.perf_name;
    wall_s = wall;
    events;
    events_per_sec = (if wall > 0. then float_of_int events /. wall else 0.);
    minor_words_per_event =
      (if events > 0 then minor /. float_of_int events else 0.);
    fast_hits = slice.H.perf_fast_hits;
    slow_hits = slice.H.perf_slow_hits;
    snapshot = slice.H.perf_snapshot;
  }

let fast_ratio r =
  let total = r.fast_hits + r.slow_hits in
  if total = 0 then 0. else float_of_int r.fast_hits /. float_of_int total

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* conn-scale: million-connection churn gates                          *)

(* The memory gates run the workload directly (not through [run_slice])
   because they need its Gc-derived measurements, which are exactly
   what the deterministic snapshots must exclude.  Per-event cost is
   gated on minor words per churn event — the deterministic measure of
   allocation cost — not wall clock, which would make the flatness gate
   flaky; wall time is still reported. *)
type conn_scale_report = {
  cs_json : string;  (** the "conn_scale" object for BENCH_PERF.json *)
  cs_violations : string list;
}

let conn_scale_gates ~smoke () =
  let module CS = Workloads.Conn_scale in
  (* 10k -> 1M is the range DESIGN.md §8b states; smoke keeps the same
     shape two orders of magnitude down so runtest stays fast. *)
  let base_conns, full_conns, events, flood_syns =
    if smoke then (2_000, 20_000, 20_000, 20_000)
    else (10_000, 1_000_000, 200_000, 1_000_000)
  in
  let leg conns =
    let t0 = Unix.gettimeofday () in
    let r = CS.run ~conns ~events () in
    (Unix.gettimeofday () -. t0, r)
  in
  let base_wall, base = leg base_conns in
  let full_wall, full = leg full_conns in
  let flood = CS.syn_flood ~syns:flood_syns () in
  let flatness =
    if base.CS.r_churn_minor_words_per_event > 0. then
      (full.CS.r_churn_minor_words_per_event
      /. base.CS.r_churn_minor_words_per_event)
      -. 1.
    else 0.
  in
  (* Steady-state comparison floor: at 16 words the two sides are both
     "a queue cell and change", and a ratio gate on noise helps no one. *)
  let steady = Float.max full.CS.r_churn_minor_words_per_event 16. in
  let violations =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        ( full.CS.r_connection_count <> full_conns,
          Printf.sprintf "sustained %d of %d connections"
            full.CS.r_connection_count full_conns );
        ( full.CS.r_bytes_per_conn > 400.,
          Printf.sprintf "%.1f resident bytes/conn exceeds the 400 B gate"
            full.CS.r_bytes_per_conn );
        ( Float.abs flatness > 0.15,
          Printf.sprintf
            "per-event minor words %.2f -> %.2f (%d -> %d conns): %.1f%% \
             exceeds the 15%% flatness gate"
            base.CS.r_churn_minor_words_per_event
            full.CS.r_churn_minor_words_per_event base_conns full_conns
            (100. *. flatness) );
        ( flood.CS.f_tcbs_allocated <> 0,
          Printf.sprintf "SYN flood allocated %d TCBs"
            flood.CS.f_tcbs_allocated );
        ( flood.CS.f_minor_words_per_syn > 2. *. steady,
          Printf.sprintf
            "SYN flood minor words/SYN %.2f exceeds 2x steady state (%.2f)"
            flood.CS.f_minor_words_per_syn steady );
      ]
  in
  Printf.printf
    "conn-scale base  %7.2fs wall  %7d conns  %8d events  %6.2f minor \
     words/event  %5.1f B/conn\n%!"
    base_wall base_conns base.CS.r_events
    base.CS.r_churn_minor_words_per_event base.CS.r_bytes_per_conn;
  Printf.printf
    "conn-scale full  %7.2fs wall  %7d conns  %8d events  %6.2f minor \
     words/event  %5.1f B/conn  (flatness %+.1f%%)\n%!"
    full_wall full_conns full.CS.r_events
    full.CS.r_churn_minor_words_per_event full.CS.r_bytes_per_conn
    (100. *. flatness);
  Printf.printf
    "conn-scale flood %7d SYNs  %d TCBs allocated  %6.2f minor words/SYN  \
     cookies=%d\n%!"
    flood_syns flood.CS.f_tcbs_allocated flood.CS.f_minor_words_per_syn
    flood.CS.f_cookies_sent;
  List.iter (Printf.printf "conn-scale GATE FAILED: %s\n%!") violations;
  let json =
    Printf.sprintf
      "{\"base_conns\": %d, \"full_conns\": %d, \"events\": %d, \
       \"sustained\": %d, \"bytes_per_conn\": %.1f, \
       \"base_minor_words_per_event\": %.2f, \
       \"full_minor_words_per_event\": %.2f, \"flatness\": %.4f, \
       \"full_wall_s\": %.3f, \"flood_syns\": %d, \
       \"flood_tcbs_allocated\": %d, \"flood_minor_words_per_syn\": %.2f, \
       \"snapshot\": \"%s\", \"gates_ok\": %b}"
      base_conns full_conns events full.CS.r_connection_count
      full.CS.r_bytes_per_conn base.CS.r_churn_minor_words_per_event
      full.CS.r_churn_minor_words_per_event flatness full_wall flood_syns
      flood.CS.f_tcbs_allocated flood.CS.f_minor_words_per_syn
      (json_escape full.CS.r_snapshot)
      (violations = [])
  in
  { cs_json = json; cs_violations = violations }

let perf_json ~scale ?parallel ?conn_scale rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"ix-bench-perf/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"scale\": %g,\n" scale);
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"wall_s\": %.3f, \"events\": %d, \
            \"events_per_sec\": %.0f, \"minor_words_per_event\": %.2f, \
            \"fast_path_hits\": %d, \"slow_path_hits\": %d, \
            \"fast_path_ratio\": %.4f, \"snapshot\": \"%s\"}%s\n"
           r.row_name r.wall_s r.events r.events_per_sec r.minor_words_per_event
           r.fast_hits r.slow_hits (fast_ratio r)
           (json_escape r.snapshot)
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string b "  ]";
  (match parallel with
  | None -> ()
  | Some (jobs_requested, jobs, wall, seq_wall) ->
      (* Honesty about the width: when the pool clamps the request,
         record how far and why, so a "speedup" read from this file is
         never mistaken for a [jobs_requested]-way result. *)
      let clamp_reason =
        if jobs < jobs_requested then
          Printf.sprintf
            "\"requested %d jobs exceeds Domain.recommended_domain_count; \
             oversubscribed domains convoy on the stop-the-world minor GC\""
            jobs_requested
        else "null"
      in
      Buffer.add_string b
        (Printf.sprintf
           ",\n  \"parallel\": {\"jobs_requested\": %d, \"jobs\": %d, \
            \"recommended_domain_count\": %d, \"clamp_reason\": %s, \
            \"wall_s\": %.3f, \
            \"sequential_wall_s\": %.3f, \"speedup\": %.2f, \
            \"snapshots_match_sequential\": true}"
           jobs_requested jobs
           (Domain.recommended_domain_count ())
           clamp_reason wall seq_wall
           (if wall > 0. then seq_wall /. wall else 0.)));
  (match conn_scale with
  | None -> ()
  | Some json -> Buffer.add_string b (",\n  \"conn_scale\": " ^ json));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run ~smoke ~jobs ~out () =
  (* Pin the measurement windows so rows are comparable across runs
     regardless of the caller's IX_BENCH_SCALE. *)
  Unix.putenv "IX_BENCH_SCALE" (if smoke then "0.05" else "0.2");
  let slices =
    if smoke then
      [
        (fun () -> H.perf_fig2_slice ~sizes:[ 1_024 ] ());
        (fun () -> H.perf_fig4_slice ~conns:1_000 ());
        (fun () -> H.perf_migration_slice ());
        (fun () -> H.perf_conn_scale_slice ~conns:2_000 ~events:6_000 ());
        (fun () ->
          H.perf_batch_sweep_slice ~client_hosts:2 ~client_threads:4
            ~sessions:96 ());
      ]
    else
      [
        (fun () -> H.perf_fig2_slice ());
        (fun () -> H.perf_fig4_slice ());
        (fun () -> H.perf_fig5_slice ());
        (fun () -> H.perf_fig3a_slice ());
        (fun () -> H.perf_migration_slice ());
        (fun () -> H.perf_conn_scale_slice ());
        (fun () -> H.perf_batch_sweep_slice ());
      ]
  in
  let rows = List.map run_slice slices in
  List.iter
    (fun r ->
      Printf.printf
        "perf %-6s %7.2fs wall  %10d events  %12.0f events/s  %6.2f minor \
         words/event  fast-path %d/%d (%.1f%%)\n%!"
        r.row_name r.wall_s r.events r.events_per_sec r.minor_words_per_event
        r.fast_hits (r.fast_hits + r.slow_hits) (100. *. fast_ratio r))
    rows;
  (* Same-seed determinism: the first slice re-run must reproduce its
     metric snapshot bit-for-bit. *)
  let again = run_slice (List.hd slices) in
  let first = List.hd rows in
  if again.snapshot <> first.snapshot then begin
    Printf.eprintf "perf: NONDETERMINISTIC snapshot for %s:\n  run 1: %s\n  run 2: %s\n%!"
      first.row_name first.snapshot again.snapshot;
    exit 1
  end;
  Printf.printf "perf: same-seed snapshot stable across two runs (%s)\n%!"
    first.row_name;
  (* Parallel leg: the same slices fanned over a domain pool must
     reproduce every sequential snapshot bit-for-bit — simulations share
     no mutable state, so domain scheduling cannot leak into results.
     (Event counts are metered sequentially above; concurrent slices
     share the engine-wide meter, so only snapshots are compared.) *)
  let parallel =
    if jobs <= 1 then None
    else begin
      (* Domain_pool clamps to the machine's core count (oversubscribed
         domains convoy on the stop-the-world minor GC); report the
         width the batch actually ran at next to the one requested. *)
      let effective = min jobs (Domain.recommended_domain_count ()) in
      let seq_wall = List.fold_left (fun acc r -> acc +. r.wall_s) 0. rows in
      let thunks = List.map (fun f () -> (f ()).H.perf_snapshot) slices in
      Gc.compact ();
      (* Best of two batches: one scheduler hiccup must not record a
         phantom convoy (the divergence check below still sees both). *)
      let run_batch () =
        let t0 = Unix.gettimeofday () in
        let snaps = Engine.Domain_pool.map_jobs ~jobs thunks in
        (Unix.gettimeofday () -. t0, snaps)
      in
      let wall_a, snaps = run_batch () in
      let wall_b, snaps_b = run_batch () in
      let wall = Float.min wall_a wall_b in
      if snaps_b <> snaps then begin
        Printf.eprintf "perf: PARALLEL batches disagree across runs\n%!";
        exit 1
      end;
      List.iter2
        (fun r snap ->
          if snap <> r.snapshot then begin
            Printf.eprintf
              "perf: PARALLEL DIVERGENCE (jobs=%d) for %s:\n  seq: %s\n  par: %s\n%!"
              jobs r.row_name r.snapshot snap;
            exit 1
          end)
        rows snaps;
      Printf.printf
        "perf parallel jobs=%d (effective %d) %7.2fs wall (sequential %.2fs, \
         speedup %.2fx); snapshots identical to sequential\n%!"
        jobs effective wall seq_wall
        (if wall > 0. then seq_wall /. wall else 0.);
      if effective < jobs then
        Printf.printf
          "perf parallel: requested %d jobs clamped to %d \
           (Domain.recommended_domain_count — oversubscribed domains \
           convoy on the minor GC); speedup above is %d-way\n%!"
          jobs effective effective;
      Some (jobs, effective, wall, seq_wall)
    end
  in
  let gates = conn_scale_gates ~smoke () in
  let json =
    perf_json ~scale:(H.scale ()) ?parallel
      ~conn_scale:gates.cs_json rows
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if gates.cs_violations <> [] then begin
    Printf.eprintf "perf: %d conn-scale gate(s) failed (see above)\n%!"
      (List.length gates.cs_violations);
    exit 1
  end;
  if smoke then begin
    List.iter
      (fun r ->
        if r.events <= 0 || r.events_per_sec <= 0. then begin
          Printf.eprintf "perf-smoke: %s ran zero events/sec\n%!" r.row_name;
          exit 1
        end)
      rows;
    let content = read_file out in
    if not (json_parses content) then begin
      Printf.eprintf "perf-smoke: %s is not valid JSON\n%!" out;
      exit 1
    end;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    if
      not
        (List.for_all (contains content)
           [ "events_per_sec"; "snapshot"; "fast_path_ratio" ])
    then begin
      Printf.eprintf "perf-smoke: %s missing expected keys\n%!" out;
      exit 1
    end;
    (* Hit-counter sanity, and the pure-optimization proof: the same
       slice with header prediction disabled must reproduce the metric
       snapshot bit-for-bit (only the hit split may differ). *)
    if (List.hd rows).fast_hits <= 0 then begin
      Printf.eprintf "perf-smoke: fast path enabled but recorded no hits\n%!";
      exit 1
    end;
    let off =
      run_slice (fun () ->
          H.perf_fig2_slice ~fast_path:false ~sizes:[ 1_024 ] ())
    in
    if off.fast_hits <> 0 then begin
      Printf.eprintf
        "perf-smoke: fast path off still recorded %d fast-path hits\n%!"
        off.fast_hits;
      exit 1
    end;
    if off.snapshot <> (List.hd rows).snapshot then begin
      Printf.eprintf
        "perf-smoke: fast-path on/off snapshots differ:\n  on:  %s\n  off: %s\n%!"
        (List.hd rows).snapshot off.snapshot;
      exit 1
    end;
    Printf.printf
      "perf-smoke: fast-path off reproduces the snapshot bit-for-bit\n%!";
    print_endline "perf-smoke: ok"
  end
