(** A simulated virtual address space: page table + MPK enforcement.

    Each WFD (workflow domain) owns one address space.  All data accesses
    are performed with an explicit PKRU value — the rights of the thread
    doing the access — and raise {!Fault} when forbidden, exactly as the
    hardware would deliver SIGSEGV with a pkey error code. *)

type fault_kind =
  | Unmapped  (** No page mapped at the address. *)
  | Perm_denied of Prot.access  (** Page permission bits forbid it. *)
  | Pkey_denied of Prot.access * Prot.key
      (** PKRU forbids access to this page's key. *)

exception Fault of { addr : int; kind : fault_kind }

type t

val create : ?tlb:bool -> unit -> t
(** [create ()] makes an empty address space.  Mapped ranges are
    tracked as regions and page records materialise lazily on first
    touch, so mapping a large range is O(1) in host time.  [tlb]
    (default [true]) enables the software TLB: a direct-mapped
    translation cache validated by a generation counter (bumped on
    {!map}/{!unmap}/{!mprotect}/{!pkey_mprotect}) that lets repeated
    accesses skip the page walk and permission/PKRU re-check.  The TLB
    is a host-time optimisation only: fault behaviour, access counts
    and demand-paging semantics are identical with it off.

    Creating a space allocates its 256-slot TLB array and nothing per
    slot: every slot starts on one never-hit entry shared by all
    spaces, which nothing ever writes, and a slot gets its own entry on
    its first miss. *)

val recycle : t -> unit
(** Rewind to the freshly-created empty state in place, reusing the
    page-table and TLB storage: all mappings, materialised pages, the
    fault handler and every per-space counter are dropped, and every
    filled TLB entry is scrubbed so it can never hit (it is kept, so
    the recycled space refills it without allocating).  Counter-silent
    — global [mem.tlb.*] counters behave exactly as if the space had
    been destroyed and a new one created — so WFD recycling stays
    indistinguishable from clone-then-destroy. *)

(** {1 Mapping} *)

val map : t -> addr:int -> len:int -> perm:Page.perm -> pkey:Prot.key -> unit
(** Map zeroed pages with permissions [perm] and key [pkey] over
    [addr, addr+len) (page aligned; [addr] must be page aligned).
    Raises [Invalid_argument] if any page in the range is already
    mapped.  Allocates one region record, and nothing per page. *)

val unmap : t -> addr:int -> len:int -> unit
(** Unmap every mapped page in the range; unmapped holes are ignored. *)

val is_mapped : t -> int -> bool
val page_count : t -> int
val mapped_bytes : t -> int

val pkey_mprotect : t -> addr:int -> len:int -> Prot.key -> unit
(** Re-tag every page in the (fully mapped) range with a key — the
    simulation of the [pkey_mprotect] syscall.  Raises {!Fault} with
    [Unmapped] if part of the range is not mapped. *)

val mprotect : t -> addr:int -> len:int -> Page.perm -> unit

val key_of : t -> int -> Prot.key
(** Key of the page containing an address.  Raises {!Fault}. *)

(** {1 Data access}

    All of these enforce page permissions and PKRU. *)

val load_byte : t -> pkru:Prot.pkru -> int -> char
val store_byte : t -> pkru:Prot.pkru -> int -> char -> unit

val load_bytes : t -> pkru:Prot.pkru -> int -> int -> bytes
(** [load_bytes t ~pkru addr len]. *)

val store_bytes : t -> pkru:Prot.pkru -> int -> bytes -> unit

val touch_bytes : t -> pkru:Prot.pkru -> int -> int -> unit
(** [touch_bytes t ~pkru addr len] performs the same permission-checked
    page walk as {!load_bytes} — identical access and TLB accounting —
    without materialising a copy of the range. *)

val load_int64 : t -> pkru:Prot.pkru -> int -> int64
val store_int64 : t -> pkru:Prot.pkru -> int -> int64 -> unit

val blit :
  t -> pkru:Prot.pkru -> src:int -> dst:int -> len:int -> unit
(** Copy within the address space, checking read rights on the source
    range and write rights on the destination range.  Disjoint ranges
    copy page-chunk to page-chunk with no intermediate buffer; ranges
    that overlap fall back to a buffered copy (memmove semantics).  On
    the direct path a fault part-way through the copy leaves earlier
    chunks already written, as on real hardware. *)

val fill : t -> pkru:Prot.pkru -> addr:int -> len:int -> char -> unit

(** {1 Fetch} *)

val check_exec : t -> pkru:Prot.pkru -> int -> unit
(** Raises {!Fault} unless the page at the address is executable. *)

(** {1 Demand paging hooks} *)

val set_fault_handler : t -> (int -> unit) option -> unit
(** When set, the handler runs the first time a mapped-but-unpopulated
    page is touched (userfaultfd model); it may fill the page through
    {!populate_page}. *)

val populate_page : t -> vpn:int -> bytes -> unit
(** Copy up to a page of backing data into the page and mark it
    populated.  Used by fault handlers. *)

val touched_fault_count : t -> int
(** Number of demand-paging faults served so far. *)

(** {1 Accounting} *)

val access_count : t -> int
(** Total load/store operations performed (for tests and traces). *)

(** {1 TLB observability}

    Per-address-space counters; process-wide totals are also kept in
    the [Sim.Stats] counters ["mem.tlb.hit"], ["mem.tlb.miss"] and
    ["mem.tlb.flush"].  To keep the hit path allocation- and
    bookkeeping-free, hits are derived ([access_count] minus misses —
    every successful access in a TLB-enabled space is exactly one of
    the two) rather than counted per access; the global ["mem.tlb.hit"]
    counter is brought up to date on every TLB flush and on every
    {!tlb_hit_count} read. *)

val tlb_hit_count : t -> int
val tlb_miss_count : t -> int

val tlb_flush_count : t -> int
(** Number of generation bumps (whole-TLB invalidations). *)

val tlb_never_hit_intact : unit -> bool
(** The shared never-hit entry still holds its initial contents — the
    invariant every TLB slot's first lookup relies on (checked by the
    tests after arbitrary access streams). *)
