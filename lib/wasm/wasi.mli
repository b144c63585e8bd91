(** WASI-style host interface.

    The paper implements 15 WASI interfaces plus two custom ones
    ([buffer_register] / [access_buffer]) in the adaptation layer
    between the WASM runtime and as-std (§7.2).  This module turns an
    abstract [system] record — supplied by the embedder: AlloyStack's
    as-std layer, or Faasm's own host — into the host-import list a
    module instance needs.

    Host-call convention: every host function receives exactly three
    i64 arguments (unused trailing ones are zero); pointers index the
    caller's linear memory. *)

type errno = Success | Badf | Inval | Noent | Fault

type system = {
  sys_write : fd:int -> bytes -> int;
      (** Write to an open descriptor; returns bytes written. *)
  sys_read : fd:int -> int -> bytes;  (** Read up to n bytes. *)
  sys_open : string -> int;  (** Returns fd or -1. *)
  sys_close : int -> bool;
  sys_clock_now : unit -> int64;  (** Nanoseconds. *)
  sys_random : int -> bytes;
  sys_args : unit -> string list;
  sys_proc_exit : int -> unit;
  sys_buffer_register : string -> bytes -> bool;
      (** Custom interface: publish intermediate data under a slot. *)
  sys_access_buffer : string -> bytes option;
      (** Custom interface: take intermediate data by slot. *)
}

val null_system : system
(** Everything fails/no-ops; useful for pure-compute modules. *)

val aot_imports : system -> (string * Aot.host_fn) list
(** The interface bound for AOT instances. *)
