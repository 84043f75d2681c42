(** Congestion control: NewReno (RFC 5681/6582) — slow start,
    congestion avoidance, fast retransmit and fast recovery — plus an
    optional DCTCP mode (Alizadeh et al.), the ECN-based protocol the
    paper names as a natural companion to IX's shallow-buffer
    deployments (§6 "We will also explore the synergies between IX and
    ... DCTCP and ECN").  In DCTCP mode the window is reduced in
    proportion to the measured fraction of CE-marked bytes. *)

type t

val create : ?dctcp:bool -> mss:int -> initial_window_segs:int -> unit -> t

val cwnd : t -> int
(** Congestion window, bytes. *)

val ssthresh : t -> int
val in_recovery : t -> bool

val on_ack : t -> acked_bytes:int -> flight:int -> unit
(** A new ACK advanced snd_una by [acked_bytes] with [flight] bytes
    still outstanding. *)

val on_fast_retransmit : t -> flight:int -> unit
(** Third duplicate ACK: halve the window and enter recovery. *)

val on_recovery_exit : t -> unit

val on_ecn_feedback : t -> acked_bytes:int -> marked:bool -> unit
(** DCTCP: record one ACK's worth of (possibly CE-echoing) feedback;
    once a window's worth of bytes has been acked, update alpha and, if
    any marks were seen, shrink cwnd by alpha/2. *)

val dctcp_alpha : t -> float
(** Current DCTCP congestion estimate (0 when not in DCTCP mode). *)

val on_rto : t -> unit
(** Timeout: collapse to one segment and restart slow start. *)

val dup_ack_threshold : int
