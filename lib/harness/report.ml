let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let mps v = Printf.sprintf "%.2fM" (v /. 1e6)
let kps v = Printf.sprintf "%.0fK" (v /. 1e3)
let gbps v = Printf.sprintf "%.2f" v
let us v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.1f%%" (100. *. v)

let table ?(out = Format.std_formatter) ~title ~headers rows =
  let all = headers :: rows in
  let columns = List.length headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init columns width in
  let pad c s = s ^ String.make (max 0 (List.nth widths c - String.length s)) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf out "@.== %s ==@.%s@.%s@." title (line headers) rule;
  List.iter (fun row -> Format.fprintf out "%s@." (line row)) rows;
  Format.pp_print_flush out ()

(* [Gc.minor_words ()], not [Gc.quick_stat]: in native code the stat
   record's word counts only move at collections, so under a large
   nursery a window can read 0.  The collection counts are current. *)
type gc_mark = { words : float; minor_gcs : int; major_gcs : int; events : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = Gc.minor_words ();
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
    events = Engine.Sim.global_events ();
  }

let print_gc_since ?name m0 =
  let m1 = gc_mark () in
  let events = m1.events - m0.events in
  let per_m x = if events = 0 then 0. else x /. (float_of_int events /. 1e6) in
  let words_m = (m1.words -. m0.words) /. 1e6 in
  let minor = m1.minor_gcs - m0.minor_gcs in
  Printf.printf
    "[%sgc: %.2fM minor words (%.2fM/Mevent), %d minor collections (%.0f/Mevent), %d major \
     collections, %d events]\n%!"
    (match name with Some n -> n ^ " " | None -> "")
    words_m (per_m words_m) minor (per_m (float_of_int minor))
    (m1.major_gcs - m0.major_gcs) events
