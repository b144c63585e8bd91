open Sim

type profile = {
  name : string;
  mss : int;
  window : int;
  tx_cost : Units.time;
  rx_cost : Units.time;
  handshake_extra : Units.time;
}

(* Calibration: per-segment CPU = MSS / throughput-from-Table-4.
   smoltcp: 1.751 Gbit/s RX -> 6.67us/seg; 5.366 Gbit/s TX -> 2.18us/seg.
   Linux:   27.76 Gbit/s RX -> 0.42us/seg; 28.56 Gbit/s TX -> 0.41us/seg. *)
let smoltcp =
  {
    name = "smoltcp";
    mss = 1460;
    window = 256 * 1024;
    tx_cost = Units.ns 2177;
    rx_cost = Units.ns 6671;
    handshake_extra = Units.us 22;
  }

let linux =
  {
    name = "linux";
    mss = 1460;
    window = 1024 * 1024;
    tx_cost = Units.ns 409;
    rx_cost = Units.ns 421;
    handshake_extra = Units.us 11;
  }

let guest_linux =
  (* Guest kernel inside a MicroVM: every segment crosses virtio, adding
     exit/notify amortised cost. *)
  {
    name = "guest-linux";
    mss = 1460;
    window = 512 * 1024;
    tx_cost = Units.ns (409 + 650);
    rx_cost = Units.ns (421 + 650);
    handshake_extra = Units.us 19;
  }

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Time_wait

(* One direction's receive side: the delivered chunks in order, with
   the read offset into the first.  Each chunk is the sender's one copy
   of a [send]; a read copies out once (a read of exactly the next
   whole chunk takes the chunk itself), a discard copies nothing. *)
type rx = { chunks : bytes Queue.t; mutable off : int; mutable len : int }

type t = {
  link : Link.t;
  client_profile : profile;
  server_profile : profile;
  client_clock : Clock.t;
  server_clock : Clock.t;
  mutable client_state : state;
  mutable server_state : state;
  c2s : rx;  (** Bytes delivered to the server. *)
  s2c : rx;  (** Bytes delivered to the client. *)
  mutable segments : int;
  fault : Fault.t option;
  mutable retransmits : int;
}

let connect ?fault ~client ~server ~link ~client_profile ~server_profile () =
  let t =
    {
      link;
      client_profile;
      server_profile;
      client_clock = client;
      server_clock = server;
      client_state = Closed;
      server_state = Listen;
      c2s = { chunks = Queue.create (); off = 0; len = 0 };
      s2c = { chunks = Queue.create (); off = 0; len = 0 };
      segments = 0;
      fault;
      retransmits = 0;
    }
  in
  (* Three-way handshake: SYN ->, <- SYN/ACK, ACK ->.  The connection is
     established on the client after one RTT and on the server after
     1.5 RTT (when the final ACK lands). *)
  let hs_begin = Clock.now client in
  t.client_state <- Syn_sent;
  let syn_arrive = Units.add (Clock.now client) t.link.Link.latency in
  Clock.advance_to server syn_arrive;
  Clock.advance server server_profile.handshake_extra;
  t.server_state <- Syn_received;
  let synack_arrive = Units.add (Clock.now server) t.link.Link.latency in
  Clock.advance_to client synack_arrive;
  Clock.advance client client_profile.handshake_extra;
  t.client_state <- Established;
  let ack_arrive = Units.add (Clock.now client) t.link.Link.latency in
  Clock.advance_to server ack_arrive;
  t.server_state <- Established;
  if Span.enabled (Span.current ()) then begin
    let sp =
      Span.begin_span (Span.current ()) ~at:hs_begin ~category:"network" ~label:"handshake" ()
    in
    Span.end_span (Span.current ()) sp ~at:(Clock.now client)
  end;
  t

let state t = (t.client_state, t.server_state)

let require_established t =
  if t.client_state <> Established || t.server_state <> Established then
    invalid_arg "Tcp: connection not established"

(* Retransmission timeout charged when an injected drop or corruption
   loses a burst: the sender's RTO fires, then the burst is resent. *)
let rto t = Units.max (Units.scale t.link.Link.latency 8.0) (Units.us 200)

(* One retransmission round per fired injection: the lost burst costs
   its wall time, an RTO wait, then the full resend.  A fired drop /
   corruption also opens a "retry" span under [parent] covering the RTO
   wait plus the resend, so retransmissions surface in the breakdown. *)
let fault_penalty t ~at ~burst_wall ~parent =
  match t.fault with
  | None -> Units.zero
  | Some plan ->
      let delay =
        if Fault.check ~at plan ~site:Fault.site_link_delay then
          Units.scale t.link.Link.latency 10.0
        else Units.zero
      in
      let dropped = Fault.check ~at plan ~site:Fault.site_link_tx in
      let corrupted = Fault.check ~at plan ~site:Fault.site_link_corrupt in
      if dropped || corrupted then begin
        t.retransmits <- t.retransmits + 1;
        let resend_at = Units.add at (Units.add burst_wall (rto t)) in
        Fault.record_recovery plan ~at:resend_at
          ~site:(if dropped then Fault.site_link_tx else Fault.site_link_corrupt)
          "retransmitted burst after RTO";
        if Span.enabled (Span.current ()) then begin
          let b = Units.add at (Units.add delay burst_wall) in
          let sp =
            Span.begin_span (Span.current ()) ~parent ~at:b ~category:"retry"
              ~label:"retransmit" ()
          in
          Span.end_span (Span.current ()) sp ~at:(Units.add b (Units.add (rto t) burst_wall))
        end;
        Units.add delay (Units.add (rto t) burst_wall)
      end
      else delay

let stream_histo = Metrics.histogram "net.stream_bytes"

(* Move [data] from [src_clock] to [dst_clock] in window-sized bursts,
   then deliver it to [sink].
   Each burst's wall time is the max of wire serialisation and the
   slower endpoint's per-segment CPU; window pacing adds one RTT of ack
   wait between bursts.  The whole stream is one "network" span hung
   off the ambient parent (the as-std socket span when driven through
   the libos, no parent when driven directly). *)
let stream t ~tx ~rx ~src_clock ~dst_clock ~sink data =
  let len = Bytes.length data in
  Metrics.observe stream_histo (float_of_int len);
  let g = (Span.current ()) in
  let sp =
    Span.begin_span g
      ~at:(Units.max (Clock.now src_clock) (Clock.now dst_clock))
      ~category:"network" ~label:"stream" ()
  in
  let mss = Stdlib.min tx.mss rx.mss in
  let window = Stdlib.min tx.window rx.window in
  let sent = ref 0 in
  while !sent < len do
    let burst = Stdlib.min window (len - !sent) in
    let segs = (burst + mss - 1) / mss in
    t.segments <- t.segments + segs;
    let cpu_tx = Units.scale tx.tx_cost (float_of_int segs) in
    let cpu_rx = Units.scale rx.rx_cost (float_of_int segs) in
    let wire =
      Units.add (Link.wire_time t.link burst)
        (Units.scale t.link.Link.per_packet (float_of_int segs))
    in
    let start = Units.max (Clock.now src_clock) (Clock.now dst_clock) in
    let burst_wall =
      let nominal = Units.max wire (Units.max cpu_tx cpu_rx) in
      Units.add nominal (fault_penalty t ~at:start ~burst_wall:nominal ~parent:sp)
    in
    let finish = Units.add start (Units.add burst_wall t.link.Link.latency) in
    Clock.advance_to src_clock (Units.add start burst_wall);
    Clock.advance_to dst_clock finish;
    (* Ack for window opening: sender waits a further RTT before the
       next burst (pipelining hides most of it for big windows). *)
    if !sent + burst < len then
      Clock.advance_to src_clock (Units.add finish t.link.Link.latency);
    sent := !sent + burst
  done;
  if len > 0 then begin
    Queue.push (Bytes.copy data) sink.chunks;
    sink.len <- sink.len + len
  end;
  if sp <> Span.none then begin
    Span.set_attr g sp "bytes" (string_of_int len);
    Span.end_span g sp
      ~at:(Units.max (Clock.now src_clock) (Clock.now dst_clock))
  end

let send t ~from_client data =
  require_established t;
  if from_client then
    stream t ~tx:t.client_profile ~rx:t.server_profile ~src_clock:t.client_clock
      ~dst_clock:t.server_clock ~sink:t.c2s data
  else
    stream t ~tx:t.server_profile ~rx:t.client_profile ~src_clock:t.server_clock
      ~dst_clock:t.client_clock ~sink:t.s2c data

(* Consume [n <= rx.len] bytes from the front of [rx], blitting them
   into [out] at [pos] unless [out] is [None]. *)
let rec consume rx n out pos =
  if n > 0 then begin
    let head = Queue.peek rx.chunks in
    let k = Stdlib.min n (Bytes.length head - rx.off) in
    (match out with Some out -> Bytes.blit head rx.off out pos k | None -> ());
    rx.len <- rx.len - k;
    if rx.off + k = Bytes.length head then begin
      ignore (Queue.pop rx.chunks);
      rx.off <- 0
    end
    else rx.off <- rx.off + k;
    consume rx (n - k) out (pos + k)
  end

let take rx n =
  let n = Stdlib.min n rx.len in
  if n = 0 then Bytes.empty
  else if rx.off = 0 && n = Bytes.length (Queue.peek rx.chunks) then begin
    rx.len <- rx.len - n;
    Queue.pop rx.chunks
  end
  else begin
    let out = Bytes.create n in
    consume rx n (Some out) 0;
    out
  end

let rx_of t ~at_client = if at_client then t.s2c else t.c2s
let recv t ~at_client n = take (rx_of t ~at_client) n

let discard t ~at_client n =
  let rx = rx_of t ~at_client in
  consume rx (Stdlib.min n rx.len) None 0

let available t ~at_client = (rx_of t ~at_client).len

let close t =
  (* FIN from client, ACK+FIN from server, final ACK. *)
  t.client_state <- Fin_wait;
  let fin_arrive = Units.add (Clock.now t.client_clock) t.link.Link.latency in
  Clock.advance_to t.server_clock fin_arrive;
  t.server_state <- Close_wait;
  let finack_arrive = Units.add (Clock.now t.server_clock) t.link.Link.latency in
  Clock.advance_to t.client_clock finack_arrive;
  t.client_state <- Time_wait;
  t.server_state <- Closed

let segments_sent t = t.segments

let retransmits t = t.retransmits

let throughput_estimate tx ~link ~rx =
  let mss = float_of_int (Stdlib.min tx.mss rx.mss) in
  let per_seg = Float.max 1e-12 (Units.to_sec (Units.max tx.tx_cost rx.rx_cost)) in
  let cpu_bound = mss /. per_seg in
  let wire_bound = link.Link.bandwidth in
  let window = float_of_int (Stdlib.min tx.window rx.window) in
  let rtt = Units.to_sec (Link.rtt link) in
  let window_bound = if rtt <= 0.0 then infinity else window /. rtt in
  Float.min (Float.min cpu_bound wire_bound) window_bound
