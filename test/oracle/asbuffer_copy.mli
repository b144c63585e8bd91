(** The copying AsBuffer receive: the reference-passing receive before
    it handed over the producer's bytes.  It acquires the slot, copies
    the buffer pages out with [Mem.Address_space.load_bytes] under the
    receiver's PKRU, charges IFI and the traversal on the receiver's
    clock and frees the buffer.  [Alloystack_core.Asbuffer]'s receive
    walks the same pages and returns the bytes its producer stored; the
    test suite checks that the two agree on every virtual observable.
    Reference-passing mode only (the file fallback was never changed). *)

val from_slot_raw : Alloystack_core.Asstd.ctx -> slot:string -> bytes

val from_slot :
  Alloystack_core.Asstd.ctx ->
  slot:string ->
  expect:Alloystack_core.Fndata.t ->
  Alloystack_core.Fndata.t
