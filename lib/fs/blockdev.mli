(** Sector-addressed virtual block device backing the filesystem
    implementations.  Mechanically exact storage; timing is charged by
    the filesystem layer, which knows its own access pattern. *)

val sector_size : int
(** 512 bytes. *)

type t

val create : sectors:int -> t
val sectors : t -> int
val size_bytes : t -> int

val reset : t -> unit
(** Restore the all-zero image of a fresh [create] with the same
    geometry (sector counters included), reusing the sparse store's
    arena.  Indistinguishable from a new device. *)

val read_sector : t -> int -> bytes
(** Fresh copy of one sector.  Raises [Invalid_argument] out of range. *)

val write_sector : t -> int -> bytes -> unit
(** [bytes] may be shorter than a sector; the rest is untouched. *)

val read_into : t -> sector:int -> count:int -> bytes -> int -> int -> unit
(** [read_into t ~sector ~count dst off len] reads [count] sectors from
    [sector] on and copies their first [len] bytes straight into [dst]
    at [off], with no intermediate buffer.  Counts [count] sector reads
    whatever [len] is, the way a filesystem that reads a whole block
    but keeps part of it does.  Raises [Invalid_argument] when a sector
    is out of range or [len] is negative or over [count] sectors. *)

val write_from : t -> sector:int -> count:int -> bytes -> int -> int -> unit
(** [write_from t ~sector ~count src off len] writes [count] whole
    sectors from [sector] on: the [len] bytes of [src] at [off], then
    zeroes, as writing a zero-padded buffer would, but with no such
    buffer.  Counts [count] sector writes.  Raises [Invalid_argument]
    like {!read_into}. *)

val read_range : t -> sector:int -> count:int -> bytes
(** Fresh copy of [count] sectors: {!read_into} on a new buffer. *)

val write_range : t -> sector:int -> bytes -> unit
(** Writes the sectors [bytes] covers; a partial last sector keeps the
    rest of its old contents. *)

val reads : t -> int
val writes : t -> int
(** Sector-op counters for tests. *)
