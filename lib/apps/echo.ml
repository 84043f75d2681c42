module Net_api = Netapi.Net_api

type client_stats = {
  latency : Ixtelemetry.Log_hist.t;
  mutable messages : int;
  mutable connects : int;
  mutable connect_failures : int;
  mutable goodput_bytes : int;
}

let new_stats () =
  {
    latency = Ixtelemetry.Log_hist.create ();
    messages = 0;
    connects = 0;
    connect_failures = 0;
    goodput_bytes = 0;
  }

let server stack ~port ~msg_size ~app_ns =
  stack.Net_api.listen ~port (fun ~thread conn ->
      ignore conn;
      let buffered = Buffer.create msg_size in
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun conn data ->
            if Buffer.length buffered = 0 && String.length data = msg_size then begin
              (* Fast path: the segment carries exactly one message —
                 echo it straight back without staging it through the
                 reassembly buffer. *)
              stack.Net_api.charge_app ~thread app_ns;
              ignore (conn.Net_api.send data)
            end
            else begin
            Buffer.add_string buffered data;
            (* Hold off the echo until a full message has arrived. *)
            while Buffer.length buffered >= msg_size do
              let msg = Buffer.sub buffered 0 msg_size in
              (* Common case: exactly one message buffered — skip the
                 empty-tail copy. *)
              if Buffer.length buffered = msg_size then Buffer.clear buffered
              else begin
                let rest =
                  Buffer.sub buffered msg_size (Buffer.length buffered - msg_size)
                in
                Buffer.clear buffered;
                Buffer.add_string buffered rest
              end;
              stack.Net_api.charge_app ~thread app_ns;
              ignore (conn.Net_api.send msg)
            done
            end);
      })

let client stack ~now ~thread ~server_ip ~port ~msg_size ~msgs_per_conn ~stats
    ~stop_after =
  let message = String.make msg_size 'x' in
  let rec session () =
    stats.connects <- stats.connects + 1;
    let received = ref 0 in
    let remaining = ref msgs_per_conn in
    let sent_at = ref 0 in
    let handlers =
      {
        Net_api.on_connected =
          (fun conn ~ok ->
            ignore conn;
            if ok then begin
              sent_at := now ();
              ignore (conn.Net_api.send message)
            end
            else stats.connect_failures <- stats.connect_failures + 1);
        on_data =
          (fun conn data ->
            received := !received + String.length data;
            if !received >= msg_size then begin
              received := !received - msg_size;
              stats.messages <- stats.messages + 1;
              stats.goodput_bytes <- stats.goodput_bytes + msg_size;
              Ixtelemetry.Log_hist.record stats.latency (now () - !sent_at);
              decr remaining;
              if !remaining > 0 then begin
                sent_at := now ();
                ignore (conn.Net_api.send message)
              end
              else begin
                (* Close with a reset (§5.3) and start a new session. *)
                conn.Net_api.abort ();
                if now () < stop_after then session ()
              end
            end);
        on_sent = (fun _ _ -> ());
        on_closed = (fun _ _ -> ());
      }
    in
    stack.Net_api.connect ~thread ~ip:server_ip ~port handlers
  in
  stack.Net_api.run_app ~thread session
