(** The RCU-protected ARP table (§4.4), one per host: IX shares it
    across its elastic threads, and each baseline host shares one
    across its threads too.  Reads are coherence-free snapshots; the
    rare updates (a host seen for the first time) go through
    [Rcu.update].  Packets that miss are parked per destination until
    the reply lands. *)

type t

val create : Rcu.manager -> t
(** A baseline host passes [Rcu.create_manager ~threads:0]: with no
    threads to wait for, a superseded table version retires at once. *)

val find : t -> Ixnet.Ip_addr.t -> Ixnet.Mac_addr.t
(** The MAC for an IP.  Raises [Not_found] on a miss, so a hit — the
    per-frame case — allocates nothing. *)

val learn : t -> Ixnet.Ip_addr.t -> Ixnet.Mac_addr.t -> unit
(** Insert/refresh a mapping (on ARP request or reply reception). *)

val park : t -> Ixnet.Ip_addr.t -> Ixmem.Mbuf.t -> bool
(** Hold a frame awaiting resolution.  At most 8 frames wait per IP:
    beyond that the frame is released and [park] returns [false], so
    the caller can count the drop. *)

val take_parked : t -> Ixnet.Ip_addr.t -> Ixmem.Mbuf.t list
(** Drain frames parked for a now-resolved address, in arrival order. *)

val entries : t -> int
val retired_versions : t -> int
(** How many superseded table versions RCU has reclaimed (observability
    for tests). *)

val parked_count : t -> int
(** Frames currently parked awaiting resolution — the chaos audit's
    leak check expects this to drain to zero at quiescence. *)
