(** A memcached-style in-memory key-value store (§5.5): a hash table
    behind the KV protocol, with the application-level characteristics
    that shape the paper's results — a per-request compute cost and a
    *global cache lock* whose contention grows with core count and
    write share (the paper: "The improvement for ETC is lower due to
    the increased lock contention within the application itself, in
    particular because it has a higher write frequency", and contention
    is "the reason that IX cannot provide throughput improvements with
    more than 6 cores").

    The store itself is real: GETs return previously SET values. *)

type app_costs = {
  base_ns : int;  (** hash + dispatch per request *)
  per_value_kb_ns : int;  (** value handling per KB *)
  get_lock_ns : int;  (** global-lock hold time for a GET *)
  set_lock_ns : int;  (** global-lock hold time for a SET *)
}

type t

val server :
  Netapi.Net_api.stack ->
  now:(unit -> Engine.Sim_time.t) ->
  port:int ->
  ?costs:app_costs ->
  unit ->
  t

val insert : t -> string -> string -> unit
(** Dataset preload (bypasses the wire, used before measurement).  The
    key must not be in the store yet: [insert] adds without looking for
    an existing binding, and a second insert of one key would leave a
    shadowed duplicate that [items] counts.  [Workloads.Keygen.preload]
    into a fresh store meets this.  The value is stored as given and
    may be shared with other keys; the store never writes through it. *)

val items : t -> int
val gets : t -> int
val sets : t -> int
val hits : t -> int

val lock_wait_ns : t -> int
(** Total time threads spent waiting on the global lock. *)
