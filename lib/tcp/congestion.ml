type t = {
  mss : int;
  dctcp : bool;
  mutable cwnd_bytes : int;
  mutable ssthresh_bytes : int;
  mutable recovery : bool;
  mutable avoid_acc : int; (* accumulated acked bytes during avoidance *)
  (* DCTCP state: per-observation-window mark accounting. *)
  mutable alpha : float;
  mutable win_acked : int;
  mutable win_marked : int;
}

let max_window = 64 * 1024 * 1024
let dup_ack_threshold = 3
let dctcp_g = 1. /. 16.

let create ?(dctcp = false) ~mss ~initial_window_segs () =
  {
    mss;
    dctcp;
    cwnd_bytes = mss * initial_window_segs;
    ssthresh_bytes = max_window;
    recovery = false;
    avoid_acc = 0;
    alpha = 0.;
    win_acked = 0;
    win_marked = 0;
  }

let cwnd t = t.cwnd_bytes
let ssthresh t = t.ssthresh_bytes
let in_recovery t = t.recovery

let on_ack t ~acked_bytes ~flight =
  ignore flight;
  if not t.recovery then begin
    if t.cwnd_bytes < t.ssthresh_bytes then
      (* Slow start: exponential growth. *)
      t.cwnd_bytes <- min max_window (t.cwnd_bytes + acked_bytes)
    else begin
      (* Congestion avoidance: one MSS per window's worth of ACKs. *)
      t.avoid_acc <- t.avoid_acc + acked_bytes;
      if t.avoid_acc >= t.cwnd_bytes then begin
        t.avoid_acc <- t.avoid_acc - t.cwnd_bytes;
        t.cwnd_bytes <- min max_window (t.cwnd_bytes + t.mss)
      end
    end
  end

let on_fast_retransmit t ~flight =
  t.ssthresh_bytes <- max (2 * t.mss) (flight / 2);
  t.cwnd_bytes <- t.ssthresh_bytes + (dup_ack_threshold * t.mss);
  t.recovery <- true

let on_recovery_exit t =
  t.recovery <- false;
  t.cwnd_bytes <- t.ssthresh_bytes;
  t.avoid_acc <- 0

let dctcp_alpha t = t.alpha

let on_ecn_feedback t ~acked_bytes ~marked =
  if t.dctcp then begin
    t.win_acked <- t.win_acked + acked_bytes;
    if marked then t.win_marked <- t.win_marked + acked_bytes;
    if t.win_acked >= t.cwnd_bytes then begin
      let fraction = float_of_int t.win_marked /. float_of_int (max 1 t.win_acked) in
      t.alpha <- ((1. -. dctcp_g) *. t.alpha) +. (dctcp_g *. fraction);
      if t.win_marked > 0 then begin
        let cwnd' =
          int_of_float (float_of_int t.cwnd_bytes *. (1. -. (t.alpha /. 2.)))
        in
        t.cwnd_bytes <- max (2 * t.mss) cwnd';
        t.ssthresh_bytes <- t.cwnd_bytes
      end;
      t.win_acked <- 0;
      t.win_marked <- 0
    end
  end

let on_rto t =
  t.ssthresh_bytes <- max (2 * t.mss) (t.cwnd_bytes / 2);
  t.cwnd_bytes <- t.mss;
  t.recovery <- false;
  t.avoid_acc <- 0
