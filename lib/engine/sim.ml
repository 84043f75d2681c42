(* The hot path of the whole simulator: every packet delivery, timer
   and dataplane cycle goes through [at]/[step].

   Event cells are pooled and reused.  A cell is an index into three
   parallel arrays (action, cancelled flag, generation), and the queue
   stores only that index, so a schedule/execute round trip in steady
   state allocates nothing beyond the caller's closure: the cell comes
   off a free stack, the heap entry is three flat-array writes, and the
   handle is an immediate int packing (cell index, generation).  The
   generation makes cancellation of an already-fired (hence reused)
   handle a no-op.  Growing the pool fills the new arrays with the
   static [no_action], never a young value, so it never forces a minor
   collection.

   Cancellation is lazy: [cancel] only marks the cell and drops its
   closure.  Dead entries are skipped at pop time, and once more than
   half the heap is dead it is compacted in O(n) — so cancel-heavy TCP
   runs (every retransmit timer that gets answered) stop paying heap
   space and sift depth for tombstones. *)

type handle = int

let gen_bits = 30
let gen_mask = (1 lsl gen_bits) - 1
let no_action () = ()

type t = {
  mutable clock : Sim_time.t;
  queue : int Event_queue.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable actions : (unit -> unit) array;
  mutable cancelled : bool array;
  mutable gens : int array;
  mutable cell_count : int; (* cells 0 .. cell_count-1 have been handed out *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
  mutable dead : int; (* cancelled entries still in the queue *)
}

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    queue = Event_queue.create ();
    root_rng = Rng.create ~seed;
    executed = 0;
    actions = [||];
    cancelled = [||];
    gens = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
    dead = 0;
  }

let now t = t.clock
let rng t = t.root_rng

let push_free t idx =
  if t.free_top = Array.length t.free then begin
    let capacity' = max 64 (2 * Array.length t.free) in
    let free' = Array.make capacity' 0 in
    Array.blit t.free 0 free' 0 t.free_top;
    t.free <- free'
  end;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

(* Recycle a cell: bump the generation so stale handles go inert, drop
   the closure so the GC can reclaim its environment. *)
let release_cell t idx =
  t.actions.(idx) <- no_action;
  t.cancelled.(idx) <- false;
  t.gens.(idx) <- (t.gens.(idx) + 1) land gen_mask;
  push_free t idx

let grow a capacity' fill =
  let a' = Array.make capacity' fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let alloc_cell t action =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let idx = t.free.(t.free_top) in
    t.actions.(idx) <- action;
    idx
  end
  else begin
    if t.cell_count = Array.length t.actions then begin
      let capacity' = max 64 (2 * t.cell_count) in
      t.actions <- grow t.actions capacity' no_action;
      t.cancelled <- grow t.cancelled capacity' false;
      t.gens <- grow t.gens capacity' 0
    end;
    let idx = t.cell_count in
    t.cell_count <- idx + 1;
    t.actions.(idx) <- action;
    idx
  end

let at t time action =
  assert (time >= t.clock);
  let idx = alloc_cell t action in
  Event_queue.push t.queue ~time idx;
  (idx lsl gen_bits) lor t.gens.(idx)

let after t delay action = at t (Sim_time.add t.clock delay) action

let maybe_compact t =
  let len = Event_queue.length t.queue in
  if len >= 128 && 2 * t.dead > len then begin
    Event_queue.compact t.queue ~keep:(fun idx ->
        if t.cancelled.(idx) then begin
          release_cell t idx;
          false
        end
        else true);
    t.dead <- 0
  end

let cancel t handle =
  let idx = handle lsr gen_bits in
  if idx < t.cell_count then begin
    if t.gens.(idx) = handle land gen_mask && not t.cancelled.(idx) then begin
      t.cancelled.(idx) <- true;
      t.actions.(idx) <- no_action;
      t.dead <- t.dead + 1;
      maybe_compact t
    end
  end

(* Process-wide count of executed events, across every [t] and every
   domain — lets the benchmark harness meter events/sec for a run
   without threading the simulation handle through each experiment.
   It is an [Atomic.t] so concurrent sims (Domain_pool fan-out) can
   share the meter; the hot loop in [run] stays atomic-free by
   counting into the per-sim [executed] field and flushing the delta
   once per [run] call. *)
let global_executed = Atomic.make 0
let global_events () = Atomic.get global_executed

let rec step_unmetered t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time = Event_queue.min_time_exn t.queue in
    let idx = Event_queue.pop_min_exn t.queue in
    if t.cancelled.(idx) then begin
      t.dead <- t.dead - 1;
      release_cell t idx;
      step_unmetered t
    end
    else begin
      t.clock <- time;
      let action = t.actions.(idx) in
      (* Release before running: the action may schedule (and so reuse
         the cell); the bumped generation keeps old handles inert. *)
      release_cell t idx;
      t.executed <- t.executed + 1;
      action ();
      true
    end
  end

let step t =
  let ran = step_unmetered t in
  if ran then Atomic.incr global_executed;
  ran

let run ?until t =
  let continue () =
    match until with
    | None -> not (Event_queue.is_empty t.queue)
    | Some horizon -> (
        match Event_queue.peek_time t.queue with
        | None -> false
        | Some next -> next <= horizon)
  in
  let e0 = t.executed in
  Fun.protect
    ~finally:(fun () ->
      let delta = t.executed - e0 in
      if delta > 0 then ignore (Atomic.fetch_and_add global_executed delta))
    (fun () ->
      while continue () do
        ignore (step_unmetered t)
      done);
  match until with
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | Some _ | None -> ()

let events_executed t = t.executed
