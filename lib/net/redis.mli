(** Redis-like key-value server used as the third-party intermediate
    data store by the OpenFaaS baseline (and Faasm's distributed tier).

    The value store and RESP-style wire encoding are real; commands
    travel over a simulated TCP connection, so a SET+GET round trip
    pays two full network data movements plus serialisation — the
    "third-party forwarding" overhead the paper attributes to
    Fig. 11's OpenFaaS line. *)

type t

val create : ?link:Link.t -> unit -> t
(** The server runs on its own clock; [link] defaults to
    {!Link.datacenter}. *)

val encode_set : string -> bytes -> string
val encode_get : string -> string

type client

val connect : t -> Sim.Clock.t -> client
(** Establish (or reuse, see [keepalive]) a TCP connection from the
    thread owning this clock. *)

val set : client -> string -> bytes -> unit
val get : client -> string -> bytes option
val del : client -> string -> bool
val exists : client -> string -> bool

val stored_keys : t -> int

val serialization_cost : int -> Sim.Units.time
(** CPU cost of serialising/deserialising a payload of [n] bytes
    (applied at each end). *)
