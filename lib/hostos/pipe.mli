(** Linux pipe model: bounded byte FIFO with 64 KiB capacity.

    Mechanically exact (bytes round-trip); the kernel copy cost per
    chunk is charged by the caller using {!Syscall.cost} plus a
    bandwidth term, matching how the Faastlane-IPC baseline pays for its
    IPC transfers. *)

type t

val capacity : int
(** 64 KiB, the default Linux pipe buffer. *)

val create : unit -> t

val write : t -> bytes -> int
(** Append up to the free space; returns the number of bytes accepted
    (0 when full — the caller models blocking by retrying after the
    reader drains). *)

val read : t -> int -> bytes
(** Remove up to [n] buffered bytes (may be shorter, empty when the pipe
    is drained). *)

val is_empty : t -> bool

val transfer_chunks : int -> int
(** [transfer_chunks len] is the number of pipe-capacity chunks needed
    to move [len] bytes — i.e. the number of write/read syscall pairs a
    blocking transfer performs. *)
