(** First-fit free-list heap allocator over a virtual address range.

    This is the analogue of the [linked_list_allocator] crate AlloyStack
    uses as its default memory allocator: holes are kept in an
    address-ordered list, allocation takes the first hole large enough,
    and freed blocks are coalesced with their neighbours.
    The allocator manages *addresses*, not storage: callers map pages
    separately. *)

type t

val create : ?fault:Sim.Fault.t -> base:int -> size:int -> unit -> t
(** Manage the range [base, base+size).  When a fault plan is given,
    every {!alloc} consults the [mem.alloc] injection site first. *)

val alloc : t -> size:int -> align:int -> int option
(** Allocated block address, or [None] when no hole fits.  [align] must
    be a power of two; blocks never overlap and are fully inside the
    managed range.  An injected [mem.alloc] fault also yields [None]
    (a transient exhaustion — the next call consults the plan again). *)

val free : t -> int -> unit
(** Free a block previously returned by {!alloc}.  Raises
    [Invalid_argument] on a double free or unknown address. *)

val allocated_bytes : t -> int
val free_bytes : t -> int
val hole_count : t -> int
val live_blocks : t -> (int * int) list
(** [(addr, size)] of live allocations, address-ordered. *)

val reset : t -> unit
(** Drop every allocation — the "easy recovery by heap units if
    functions crash" behaviour the paper gets from heap-per-function. *)
