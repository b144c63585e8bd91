(** AsBuffer: reference passing for intermediate data (§5, Fig. 6/8).

    [with_slot] allocates a buffer in the WFD's shared heap through
    [alloc_buffer], serialises the {!Fndata.t} value and stores it in
    user context (the buffer pages carry the buffer protection key, so
    the MPK check really passes — and really fails from another WFD).
    [from_slot] resolves the slot through [acquire_buffer], verifies
    the type fingerprint and reads the data zero-copy: the receiver
    walks the buffer pages under its own PKRU (every permission check,
    access count and clock charge of a read) and then takes the bytes
    the producer stored, not a copy of the pages.

    {b Sharing rule.}  Bytes passed to {!with_slot_raw} are shared with
    their receiver, the host form of the paper's Rust move: neither the
    producer nor any receiver may modify them afterwards.

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
    benchmark data plane use).  The buffer keeps the bytes themselves
    for its receiver: the caller must not modify them afterwards. *)

val from_slot_raw : Asstd.ctx -> slot:string -> bytes
(** Acquire, walk and free a raw slot, returning the very bytes its
    producer passed to {!with_slot_raw}; the receiver must not modify
    them.  Raises {!Errno.Error} like {!from_slot}, and
    {!Mem.Address_space.Fault} when the receiver's PKRU denies the
    buffer key, before any bytes are handed over.  With [ref_passing]
    off, a copy read back from the FAT image. *)

val consume_slot_raw : Asstd.ctx -> slot:string -> int
(** Drain a raw slot and return its byte count, for consumers that
    model work on the payload rather than reading its bytes.  Virtual
    behaviour (syscalls, page walk, clock charges, buffer free) is
    identical to [from_slot_raw]'s, and it returns
    [Bytes.length (from_slot_raw ctx ~slot)]. *)

val free : Asstd.ctx -> handle -> unit
(** Return the buffer to the heap (receiver side, after consumption). *)
