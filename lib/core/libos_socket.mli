(** as-libos [socket] module: TCP networking in user space (Table 2).

    Module init allocates a TAP device for the WFD (its independent IP
    address) and brings up the smoltcp-style stack; [smol_bind] /
    [smol_connect] / [smol_accept] / [smol_send] / [smol_recv] then run
    the real simulated TCP state machine with the smoltcp performance
    profile (Table 4). *)

val init : Wfd.t -> clock:Sim.Clock.t -> unit

val reset_host : unit -> unit

val wfd_ip : Wfd.t -> string option
(** The WFD's IP once the socket module is loaded. *)

type listener
(** A bound, listening endpoint published on the simulated network. *)

val smol_bind : Wfd.t -> clock:Sim.Clock.t -> port:int -> (listener, Errno.t) result
(** [Eexist] if the (ip, port) is taken. *)

val smol_accept :
  listener -> clock:Sim.Clock.t -> (Netsim.Tcp.t, Errno.t) result
(** Blocks (in virtual time) until a connection arrives; [Enotconn]
    when no client ever connects. *)

val smol_connect :
  Wfd.t ->
  clock:Sim.Clock.t ->
  ip:string ->
  port:int ->
  (Netsim.Tcp.t, Errno.t) result
(** Connect to a listener on the simulated host network (including
    other WFDs' services). *)

val smol_send : Netsim.Tcp.t -> clock:Sim.Clock.t -> from_client:bool -> bytes -> int
val smol_recv : Netsim.Tcp.t -> clock:Sim.Clock.t -> at_client:bool -> int -> bytes
