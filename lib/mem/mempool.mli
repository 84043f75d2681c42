(** Per-hardware-thread memory pools (§4.2).

    Each pool models arrays of identically sized objects backed by
    2 MB large pages; free objects are tracked with a simple free list.
    The simulator materialises each object on first use, so host memory
    follows the pool's working set rather than its capacity.  One pool
    per elastic thread means allocation never synchronizes with other
    cores.  The pool records allocation statistics so benchmarks can
    report pressure and exhaustion. *)

type t

val create : ?mbuf_size:int -> ?capacity:int -> name:string -> unit -> t
(** [create ~name ()] makes a pool that can hold up to [capacity]
    mbufs (default 16384) of [mbuf_size] bytes, each created the first
    time it is needed. *)

val alloc : t -> Mbuf.t option
(** Take the most recently released mbuf from the free list, or create
    one if the list is empty and fewer than [capacity] exist.  [None]
    once [capacity] objects are live (pool exhausted) — callers treat
    this as packet drop, as real NIC replenishment does. *)

val live_count : t -> int
(** Objects currently allocated out of the pool. *)

val provisioned : t -> int
(** Objects created so far, live or free; never above [capacity]. *)

val capacity : t -> int

val stat_allocs : t -> int
val stat_failures : t -> int

val name : t -> string

val set_alloc_gate : t -> (unit -> bool) option -> unit
(** Fault hook: while the gate returns [false], {!alloc} behaves as if
    the pool were exhausted — counted failure, [None], no raise — and
    recovers the moment the gate reopens.  [None] (the default) removes
    the gate. *)
