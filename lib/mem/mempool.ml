(* The modelled pool is backed by 2 MB large pages (§4.2); the simulator
   only materialises each mbuf the first time [alloc] finds the free
   stack empty, so a pool costs host memory for its working set, not
   for its capacity.

   The free stack is an array of mbufs (top-of-stack index), not a
   list: release/alloc are two array writes, with no cons cell per
   recycled buffer — the per-packet path allocates nothing. *)

type t = {
  pool_name : string;
  mbuf_size : int;
  max_objects : int;
  mutable provisioned : int;
  mutable free : Mbuf.t array; (* free.(0 .. free_top-1) are idle mbufs *)
  mutable free_top : int;
  mutable live : int;
  mutable allocs : int;
  mutable failures : int;
  mutable alloc_gate : (unit -> bool) option;
}

let create ?(mbuf_size = Mbuf.default_size) ?(capacity = 16384) ~name () =
  {
    pool_name = name;
    mbuf_size;
    max_objects = capacity;
    provisioned = 0;
    free = [||];
    free_top = 0;
    live = 0;
    allocs = 0;
    failures = 0;
    alloc_gate = None;
  }

let push_free t mbuf =
  if t.free_top = Array.length t.free then begin
    let capacity' = min t.max_objects (max 64 (2 * t.free_top)) in
    let free' = Array.make capacity' mbuf in
    Array.blit t.free 0 free' 0 t.free_top;
    t.free <- free'
  end;
  t.free.(t.free_top) <- mbuf;
  t.free_top <- t.free_top + 1

let release t mbuf =
  Mbuf.reset mbuf;
  (* reset sets refcount to 1; hold it in the free stack at 0 live refs by
     convention — the next alloc hands it out fresh. *)
  push_free t mbuf;
  t.live <- t.live - 1

let alloc t =
  match t.alloc_gate with
  | Some gate when not (gate ()) ->
      (* Injected exhaustion window: behave exactly like a full pool —
         a counted failure, never a raise. *)
      t.failures <- t.failures + 1;
      None
  | _ ->
  if t.free_top = 0 && t.provisioned < t.max_objects then begin
    let mbuf = Mbuf.create ~size:t.mbuf_size () in
    mbuf.Mbuf.on_free <- release t;
    push_free t mbuf;
    t.provisioned <- t.provisioned + 1
  end;
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let mbuf = t.free.(t.free_top) in
    t.live <- t.live + 1;
    t.allocs <- t.allocs + 1;
    Mbuf.reset mbuf;
    Some mbuf
  end
  else begin
    t.failures <- t.failures + 1;
    None
  end

let live_count t = t.live
let provisioned t = t.provisioned
let capacity t = t.max_objects
let stat_allocs t = t.allocs
let stat_failures t = t.failures
let name t = t.pool_name
let set_alloc_gate t gate = t.alloc_gate <- gate
