(** Deterministic key naming shared by the load generator and the
    dataset preloader: rank [k] always maps to the same key string
    (with a profile-dependent length), so preloaded datasets get hits. *)

val key : profile:Size_dist.profile -> rank:int -> string

val preload :
  insert:(string -> string -> unit) ->
  profile:Size_dist.profile ->
  seed:int ->
  unit
(** Populate a store with the whole key space (values sampled from the
    profile's value-size distribution).  Each rank is inserted once, and
    ranks below 10{^8} spell distinct keys (the key holds the rank's
    eight digits), so [insert] may skip its duplicate check.
    All values of one length are the same physical string: [insert]
    must treat values as read-only. *)
