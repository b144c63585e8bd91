(** as-libos [mm] module: heap buffers for intermediate data (Table 2).

    [alloc_buffer] carves a page-aligned block out of the WFD's
    libos-heap region, maps its pages with the buffer protection key and
    records the (slot, fingerprint) -> address binding.
    [acquire_buffer] looks the slot up, verifies the fingerprint, and
    {e removes} the entry so no two functions can own the same buffer
    (§7.1).  [mmap] maps anonymous memory into the caller's slot. *)

type buffer = {
  addr : int;
  fingerprint : int64;
  payload : bytes;
      (** The host bytes the producer stores into the buffer pages.  A
          receiver hands them over after its own page walk instead of
          copying the pages out. *)
}

val size : buffer -> int
(** The payload's length; the buffer maps it rounded up to whole
    pages. *)

val init : Wfd.t -> clock:Sim.Clock.t -> unit
(** Install the slot map (called by the module loader). *)

val alloc_buffer :
  Wfd.t ->
  clock:Sim.Clock.t ->
  slot:string ->
  payload:bytes ->
  fingerprint:int64 ->
  (buffer, Errno.t) result
(** Map pages for [payload] (the caller stores it into them) and bind
    the slot.  [Eexist] if the slot is live, [Enomem] if the heap is
    exhausted. *)

val acquire_buffer :
  Wfd.t ->
  clock:Sim.Clock.t ->
  slot:string ->
  fingerprint:int64 ->
  (buffer, Errno.t) result
(** [Enoent] for an unknown slot, [Einval] on fingerprint mismatch
    (the slot entry survives a failed acquire). *)

val free_buffer : Wfd.t -> buffer -> unit
(** Unmap and return the block to the heap. *)

val peek_slot : Wfd.t -> string -> buffer option
(** Non-consuming lookup (used by fan-out bookkeeping and tests). *)

val live_slots : Wfd.t -> string list
val live_buffer_bytes : Wfd.t -> int

val mmap :
  Wfd.t -> clock:Sim.Clock.t -> thread:Wfd.thread -> len:int -> (int, Errno.t) result
(** Anonymous mapping in the calling function's heap region. *)
