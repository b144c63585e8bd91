(** TCP connection model: real state machine and byte stream, windowed
    transfer timing.

    The protocol mechanics are real — three-way handshake state
    transitions, MSS segmentation, cumulative in-order delivery, FIN
    teardown — and the payload genuinely round-trips.  Transfer *time*
    follows the classic windowed model: data moves in bursts of at most
    one congestion window, each burst costing
    [max(wire serialisation + RTT, per-segment CPU at both ends)].
    Per-segment CPU is the property that separates smoltcp from the
    Linux stack (Table 4 of the paper). *)

type profile = {
  name : string;
  mss : int;
  window : int;  (** Effective window in bytes. *)
  tx_cost : Sim.Units.time;  (** Sender CPU per segment. *)
  rx_cost : Sim.Units.time;  (** Receiver CPU per segment. *)
  handshake_extra : Sim.Units.time;
      (** Stack-side connection setup work beyond the wire RTT. *)
}

val smoltcp : profile
(** Calibrated to Table 4: ~1.75 Gbit/s RX, ~5.37 Gbit/s TX. *)

val linux : profile
(** Calibrated to Table 4: ~27.8 / 28.6 Gbit/s. *)

val guest_linux : profile
(** Linux stack inside a MicroVM: adds virtio exit costs per segment. *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Time_wait

type t
(** One direction-agnostic connection between two simulated threads. *)

val connect :
  ?fault:Sim.Fault.t ->
  client:Sim.Clock.t ->
  server:Sim.Clock.t ->
  link:Link.t ->
  client_profile:profile ->
  server_profile:profile ->
  unit ->
  t
(** Performs the three-way handshake, advancing both clocks.  When a
    fault plan is given, every data burst consults the
    [net.link.delay], [net.link.tx] (drop) and [net.link.corrupt]
    sites: a fired drop or corruption loses the burst and forces a
    retransmission (RTO wait plus a full resend); a fired delay adds
    extra queueing latency.  Payload delivery is unaffected — faults
    only cost virtual time. *)

val state : t -> state * state
(** (client state, server state). *)

val send : t -> from_client:bool -> bytes -> unit
(** Stream bytes from one end to the other, advancing both clocks
    through the windowed transfer. *)

val recv : t -> at_client:bool -> int -> bytes
(** Take up to [n] delivered bytes from the receive buffer. *)

val discard : t -> at_client:bool -> int -> unit
(** Drop up to [n] delivered bytes without copying them: [recv] for a
    reader that ignores what it reads. *)

val available : t -> at_client:bool -> int

val close : t -> unit
(** FIN/ACK teardown from the client side. *)

val segments_sent : t -> int
(** Total data segments across both directions (tests/inspection). *)

val retransmits : t -> int
(** Bursts retransmitted because an injected fault dropped or corrupted
    them. *)

val throughput_estimate : profile -> link:Link.t -> rx:profile -> float
(** Steady-state bytes/s the model yields for bulk transfer from a
    sender with this profile to [rx] over [link] — used by Table 4. *)
