(** Time-ordered event queue (pairing heap).

    Drives the serving merge loop and the open-loop load generator.
    Push is O(1) and pop is O(log n) amortised.  Ordering is (time,
    priority class, insertion order), so ties are broken
    deterministically and same-key events pop FIFO. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> at:Units.time -> ?pri:int -> 'a -> unit
(** Schedule a payload at the given instant.  [pri] (default 0) breaks
    same-instant ties before insertion order: lower pops first. *)

val pop : 'a t -> (Units.time * 'a) option
(** Remove and return the earliest event. *)

val peek : 'a t -> (Units.time * 'a) option
