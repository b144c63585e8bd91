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

val create : unit -> t
(** [create ()] makes an empty address space.  Mapped ranges are
    tracked as regions and page records materialise lazily on first
    touch, so mapping a large range is O(1) in host time.  Creating a
    space allocates its record and an empty page table, nothing per
    page.

    Every access below goes through one page walk: page lookup,
    permission and PKRU check, demand-zero service, then the access
    count.  There is no translation cache, so a revoked right
    ({!unmap}, {!mprotect}, {!pkey_mprotect}, or a different PKRU) is
    enforced on the very next access. *)

val recycle : t -> unit
(** Rewind to the freshly-created empty state in place, reusing the
    page-table storage: all mappings, materialised pages (parked on the
    page pool), the fault handler and every per-space counter are
    dropped.  No global counter moves, so WFD recycling stays
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
    page walk as {!load_bytes} — identical faults and access
    accounting — without materialising a copy of the range. *)

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
(** Successful page walks so far: one per byte access, per page chunk
    of a bulk access and per {!check_exec} (for tests and traces). *)
