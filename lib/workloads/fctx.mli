(** The platform-agnostic function context.

    A workload kernel is a closure over this record; each platform
    (AlloyStack, OpenFaaS, Faastlane, Faasm, ...) wires the fields to
    its own transport and runtime, so end-to-end differences between
    platforms come only from the platform, never from workload code. *)

type t = {
  instance : int;  (** This function's parallel instance index. *)
  total : int;  (** Number of parallel instances of this function. *)
  read_input : string -> bytes;
      (** Read a named input file (charges the platform's storage). *)
  write_output : string -> bytes -> unit;
  send : slot:string -> bytes -> unit;
      (** Publish intermediate data under a slot name.  The bytes are
          shared with their receiver (on AlloyStack they are the very
          bytes [recv] returns, the host form of the paper's Rust
          move): the sender must not modify them afterwards. *)
  recv : slot:string -> bytes;
      (** Take intermediate data; raises [Not_found] for a dead slot.
          The bytes may be the sender's own, so the receiver must not
          modify them either. *)
  println : string -> unit;
  compute : Sim.Units.time -> unit;
      (** Charge pure computation measured in native time; the platform
          applies its language/runtime factor. *)
  phase : string -> (unit -> unit) -> unit;
      (** Attribute enclosed time to a Fig. 15 phase. *)
}

val phase_read : string
val phase_compute : string
val phase_transfer : string

val compute_bytes : t -> ns_per_byte:float -> int -> unit

type kernel = t -> unit

(** {1 App bundle} *)

type app = {
  app_name : string;
  stages : (string * int * kernel) list;
      (** (function name, parallel instances, kernel), in DAG order;
          consecutive entries are fully connected stage-to-stage. *)
  inputs : (string * bytes) list;  (** Files staged before the run. *)
  validate : read_output:(string -> bytes option) -> (unit, string) result;
      (** Check the run really produced the right answer. *)
  modules : string list;
      (** as-libos modules the app needs (Table 1 style). *)
}
