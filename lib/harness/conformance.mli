(** Conformance driver: the pure-functional model
    ({!Ixtcp_model.Model_tcp}) as an oracle for the production TCP.

    One leg replays an identical segment schedule — application opens,
    sends and closes, with wire loss/duplication/delay and optionally
    hostile forgeries drawn from seeded per-direction streams — through
    the real {!Ixtcp.Tcp_endpoint} and through the model, and asserts
    that the two observable traces are equal item for item: emitted
    segment headers, application callbacks (recv/sent/connected/closed
    with reasons), protocol events (challenge ACKs, RFC 1337 drops,
    D-SACK reports) and sampled state transitions.

    Everything is a pure function of the leg seed and the flags, so a
    leg is bit-identical at any [--jobs] width. *)

type tr =
  | T_out of Ixtcp_model.Model_tcp.segment
      (** emitted header (ack normalized to 0 when [ack_flag] is clear) *)
  | T_recv of int
  | T_sent of int
  | T_conn of bool
  | T_closed of Ixtcp.Tcb.close_reason
  | T_ev of Ixtcp.Tcb.protocol_event
  | T_state of Ixtcp.Tcp_state.t
  | T_acc of int  (** bytes accepted by an application send *)

type report = {
  equal : bool;
  digest : int;  (** order-sensitive hash of the real trace *)
  trace_len : int;
  detail : string option;  (** first divergence, when not equal *)
  trace_real : tr list;
  trace_model : tr list;
}

val run_leg :
  seed:int ->
  fast_path:bool ->
  ?faults:bool ->
  ?hostile:bool ->
  ?mutate:bool ->
  unit ->
  report
(** Run one leg.  [faults] (default [true]) enables wire
    loss/duplication/jitter; [hostile] injects forged RST/SYN/old-dup
    segments on both directions; [mutate] perturbs the first
    model-emitted header so the comparison must fail — the negative
    control for the oracle itself. *)

val digest_legs :
  seeds:int list ->
  fast_path:bool ->
  ?faults:bool ->
  ?hostile:bool ->
  jobs:int ->
  unit ->
  int list
(** Run a batch of legs across a domain pool and return their trace
    digests in seed order; raises on the first diverging leg.  Used by
    the determinism test: digests at [jobs:1] and [jobs:4] must be
    identical. *)
