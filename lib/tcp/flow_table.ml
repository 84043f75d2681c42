(* Open-addressing table keyed by the (local_port, remote_ip,
   remote_port) 3-tuple, probed linearly.

   The table stores only generation-checked flow handles into the SoA
   TCB store ([Tcb.flow_handle]) — one unboxed int per slot, with the
   handle array doubling as slot state via negative sentinels (live
   handles are always positive: slot 0 of the store is reserved).  Key
   comparison reads the connection's port/address columns straight out
   of the store, so the table itself carries no key material: at
   million-connection population it costs one word per slot instead of
   the three the key-mirroring layout needed.

   [find] runs once per RX segment, so it must not allocate: [deref]
   returns the [Some view] the store built at [create] time (misses
   return the static [None]). *)

type t = {
  store : Tcb.store;
  mutable slots : int array; (* flow handle, or negative sentinel *)
  mutable count : int; (* live entries *)
  mutable used : int; (* live + tombstones *)
}

let empty = -1
let tombstone = -2
let initial_capacity = 1024

(* splitmix64-style finisher over both key halves; capacity is a power
   of two, so the multiply must scramble low bits well. *)
let hash ~krem ~kloc =
  let h = krem lxor (kloc * 0x3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 27)

let create ~store =
  { store; slots = Array.make initial_capacity empty; count = 0; used = 0 }

let key_rem ~remote_ip ~remote_port =
  ((remote_ip land 0xFFFF_FFFF) lsl 16) lor (remote_port land 0xFFFF)

let[@inline] krem_of store slot =
  key_rem ~remote_ip:(Tcb.slot_remote_ip store slot)
    ~remote_port:(Tcb.slot_remote_port store slot)

(* Does the connection behind [fh] carry this key?  A handle whose
   generation has moved on fails [Tcb.handle_live] and can never match —
   a freed-and-reused store slot is not confused with its predecessor. *)
let[@inline] fh_matches store fh ~krem ~kloc =
  Tcb.handle_live store fh
  &&
  let slot = fh land Tcb.slot_mask in
  Tcb.slot_local_port store slot = kloc && krem_of store slot = krem

(* Find the slot holding (krem, kloc), or -1. *)
let probe t ~krem ~kloc =
  let mask = Array.length t.slots - 1 in
  let i = ref (hash ~krem ~kloc land mask) in
  let slot = ref (-1) in
  let searching = ref true in
  while !searching do
    let fh = t.slots.(!i) in
    if fh = empty then searching := false
    else begin
      if fh >= 0 && fh_matches t.store fh ~krem ~kloc then begin
        slot := !i;
        searching := false
      end
      else i := (!i + 1) land mask
    end
  done;
  !slot

let rec insert t ~krem ~kloc fh =
  let mask = Array.length t.slots - 1 in
  let i = ref (hash ~krem ~kloc land mask) in
  let slot = ref (-1) in
  let searching = ref true in
  while !searching do
    let k = t.slots.(!i) in
    if k = empty then begin
      if !slot = -1 then slot := !i;
      searching := false
    end
    else if k = tombstone then begin
      if !slot = -1 then slot := !i;
      i := (!i + 1) land mask
    end
    else if fh_matches t.store k ~krem ~kloc then begin
      slot := !i;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  let i = !slot in
  (match t.slots.(i) with
  | k when k = empty ->
      t.count <- t.count + 1;
      t.used <- t.used + 1
  | k when k = tombstone -> t.count <- t.count + 1
  | _ -> ());
  t.slots.(i) <- fh;
  (* Resize on 3/4 occupancy (live + tombstones) to keep probes short;
     rehashing also clears accumulated tombstones. *)
  let capacity = Array.length t.slots in
  if 4 * t.used >= 3 * capacity then rehash t (2 * capacity)

and rehash t capacity' =
  let old = t.slots in
  t.slots <- Array.make capacity' empty;
  t.count <- 0;
  t.used <- 0;
  Array.iter
    (fun fh ->
      (* Re-derive the key from the store; a stale handle drops out. *)
      if fh >= 0 && Tcb.handle_live t.store fh then
        let slot = fh land Tcb.slot_mask in
        insert t ~krem:(krem_of t.store slot) ~kloc:(Tcb.slot_local_port t.store slot) fh)
    old

let add t ~local_port ~remote_ip ~remote_port tcb =
  insert t ~krem:(key_rem ~remote_ip ~remote_port) ~kloc:(local_port land 0xFFFF)
    (Tcb.flow_handle tcb)

let find t ~local_port ~remote_ip ~remote_port =
  let slot =
    probe t ~krem:(key_rem ~remote_ip ~remote_port) ~kloc:(local_port land 0xFFFF)
  in
  if slot = -1 then None else Tcb.deref t.store t.slots.(slot)

let remove t ~local_port ~remote_ip ~remote_port =
  let slot =
    probe t ~krem:(key_rem ~remote_ip ~remote_port) ~kloc:(local_port land 0xFFFF)
  in
  if slot >= 0 then begin
    t.slots.(slot) <- tombstone;
    t.count <- t.count - 1
  end

let count t = t.count

let iter t f =
  Array.iter
    (fun fh ->
      if fh >= 0 then
        match Tcb.deref t.store fh with Some tcb -> f tcb | None -> ())
    t.slots
