(** AsBuffer: reference passing for intermediate data (§5, Fig. 6/8).

    [with_slot] allocates a buffer in the WFD's shared heap through
    [alloc_buffer], serialises the {!Fndata.t} value and stores it in
    user context (the buffer pages carry the buffer protection key, so
    the MPK check really passes — and really fails from another WFD).
    [from_slot] resolves the slot through [acquire_buffer], verifies
    the type fingerprint and reads the data zero-copy.

    When the WFD's [ref_passing] feature is disabled (the Fig. 14
    ablation "base"/"+on-demand" bars), both operations transparently
    fall back to staging the bytes through a file in the WFD's FAT
    image — the AWS-Step-Functions-recommended pattern the paper uses
    as its baseline transfer. *)

type handle = {
  slot : string;
  buffer : Libos_mm.buffer option;  (** [None] in file-fallback mode. *)
  size : int;
}

val with_slot : Asstd.ctx -> slot:string -> Fndata.t -> handle
(** Create and fill a buffer.  Raises {!Errno.Error} ([Eexist] for a
    live slot, [Enomem] when the buffer heap is exhausted). *)

val from_slot : Asstd.ctx -> slot:string -> expect:Fndata.t -> Fndata.t
(** Acquire and read.  [expect] supplies the expected fingerprint
    (pass any value of the right shape, e.g. the type's default —
    mirroring Rust's [AsBuffer::<T>::from_slot]).  Raises
    {!Errno.Error} ([Enoent] unknown slot, [Einval] fingerprint
    mismatch). *)

val with_slot_raw : Asstd.ctx -> slot:string -> bytes -> handle
(** Bulk-bytes fast path (what the C/Python string interface and the
    benchmark data plane use). *)

val from_slot_raw : Asstd.ctx -> slot:string -> bytes

val consume_slot_raw : Asstd.ctx -> slot:string -> int
(** Acquire, traverse and free a raw slot without materialising its
    payload, returning the byte count drained.  Virtual behaviour
    (syscalls, page-walk accounting, clock charges, buffer free) is
    identical to [from_slot_raw]; only the host-side copy is skipped.
    For consumers that model work on the payload rather than reading
    its bytes. *)

val free : Asstd.ctx -> handle -> unit
(** Return the buffer to the heap (receiver side, after consumption). *)
