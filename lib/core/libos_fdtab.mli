(** as-libos [fdtab] module: file descriptor table (Table 2).

    POSIX-flavoured [open]/[read]/[write]/[close] over the WFD's
    resources.  Paths route by prefix: [/dev/stdout] to the stdio
    module, [/tmp/...] and everything else to the fatfs module —
    loading those modules on demand through the inter-module path is
    the caller's (as-std's) job; fdtab assumes they are present. *)

type descriptor =
  | File of { path : string; mutable pos : int }
  | Stdout
  | Socket of { conn : Netsim.Tcp.t; at_client : bool }
      (** A connected TCP endpoint: [write] sends on the stream,
          [read] drains delivered bytes. *)

val init : Wfd.t -> clock:Sim.Clock.t -> unit

val openf :
  Wfd.t -> clock:Sim.Clock.t -> path:string -> create:bool -> (int, Errno.t) result
(** [Enoent] when the file does not exist and [create] is false. *)

val read : Wfd.t -> clock:Sim.Clock.t -> fd:int -> len:int -> (bytes, Errno.t) result
(** Sequential read from the descriptor position (may be shorter at
    EOF). *)

val write : Wfd.t -> clock:Sim.Clock.t -> fd:int -> bytes -> (int, Errno.t) result
(** Append-at-position write (whole-file rewrite on the FAT layer). *)

val register_socket :
  Wfd.t -> clock:Sim.Clock.t -> conn:Netsim.Tcp.t -> at_client:bool -> int
(** Install a connected TCP endpoint in the table and return its fd
    (what as-std's [tcp_connect_fd] hands back to user code). *)

val close : Wfd.t -> clock:Sim.Clock.t -> fd:int -> (unit, Errno.t) result
val lookup : Wfd.t -> int -> descriptor option
