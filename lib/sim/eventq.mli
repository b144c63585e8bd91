(** Time-ordered event queue (binary heap over flat arrays).

    Drives the serving merge loop and the open-loop load generator.
    Push and pop are O(log n) and allocate nothing once the queue has
    grown to its high-water mark.  Ordering is (time, priority class,
    insertion order), so ties are broken deterministically and
    same-key events pop FIFO. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> at:Units.time -> ?pri:int -> 'a -> unit
(** Schedule a payload at the given instant.  [pri] (default 0) breaks
    same-instant ties before insertion order: lower pops first. *)

val next_at : 'a t -> Units.time
(** The instant of the earliest event.  Raises [Invalid_argument] when
    the queue is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload; its instant is
    what {!next_at} answered just before.  Raises [Invalid_argument]
    when the queue is empty. *)
