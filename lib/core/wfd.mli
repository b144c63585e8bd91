(** The WorkFlow Domain (WFD): one address space carrying every entity a
    workflow needs — user functions, as-libos, heap memory and system
    resources (§3.1).

    The address space is split by MPK into a system partition (as-visor
    and as-libos, key 1) and a user partition (function
    slots and trampoline pages).  Functions of the same tenant share
    one user key by default; enabling inter-function isolation (IFI)
    gives every function slot its own key (§3.3). *)

type features = {
  on_demand : bool;  (** On-demand as-libos loading (§4). *)
  ref_passing : bool;  (** AsBuffer reference passing (§5). *)
  ifi : bool;  (** Per-function MPK keys. *)
}

val default_features : features

type thread = {
  fn_slot : int;  (** Which function slot this thread executes. *)
  clock : Sim.Clock.t;
  mutable pkru : Mem.Prot.pkru;  (** Current rights of this thread. *)
  user_pkru : Mem.Prot.pkru;  (** Rights while in user code. *)
}

type t = {
  mutable id : int;  (** Mutable only for {!bind} re-binding a pooled shell. *)
  workflow_name : string;
  features : features;
  aspace : Mem.Address_space.t;
  buffer_alloc : Mem.Alloc.t;  (** AsBuffer heap in the libos-heap region. *)
  loaded_modules : (string, unit) Hashtbl.t;
  entry_table : (string, string) Hashtbl.t;  (** entry name -> module. *)
  ext : Ext.t;  (** Per-module state (fd tables, slot maps, ...). *)
  vfs : Fsim.Vfs.t;  (** The WFD's virtual disk image. *)
  fault : Sim.Fault.t option;  (** Fault plan consulted by substrate layers. *)
  mutable tap : Hostos.Tap.device option;
  stdout : Buffer.t;  (** Host console output of this WFD. *)
  mutable pid : Hostos.Process.pid;
  mutable proc_table : Hostos.Process.t;
  mutable next_fn_slot : int;
  mutable destroyed : bool;
  (* Counters *)
  mutable entry_misses : int;
  mutable entry_hits : int;
  mutable trampoline_crossings : int;
  mutable span : Sim.Span.id;
      (** Current enclosing span in {!Sim.Span.global} — the trace
          context the visor threads through stages and that substrate
          layers (loader, buffers, sockets) parent their spans under.
          {!Sim.Span.none} when tracing is off. *)
}

(** {1 Keys} *)

val shared_user_key : Mem.Prot.key
val buffer_key : Mem.Prot.key

val function_key : t -> int -> Mem.Prot.key
(** Key for a function slot: the shared user key, or a per-slot key
    under IFI. *)

val system_pkru : Mem.Prot.pkru
(** Rights while executing as-visor / as-libos code: everything. *)

(** {1 Lifecycle} *)

val create :
  ?features:features ->
  ?vfs:Fsim.Vfs.t ->
  ?fault:Sim.Fault.t ->
  proc_table:Hostos.Process.t ->
  clock:Sim.Clock.t ->
  workflow_name:string ->
  unit ->
  t
(** Builds the address space (system regions + trampoline), allocates
    protection keys and charges {!Cost.wfd_create} to [clock].  The
    default disk is a fresh FAT image.  Passing a fault plan arms the
    WFD's injection points: the disk ([vfs.read]/[vfs.write]), the
    buffer heap ([mem.alloc]) and, via the loader and visor, module
    loads and function threads. *)

val spawn_function_thread : t -> clock:Sim.Clock.t -> thread
(** Clone a thread into the next free function slot, map its code,
    heap and stack with the slot's key, and charge clone +
    {!Cost.function_thread_start}.  The thread's clock starts at
    [clock]'s instant. *)

val respawn_function_thread : t -> slot:int -> clock:Sim.Clock.t -> thread
(** Heap-unit crash recovery (§3.1 / §7.1): unmap everything in the
    function's slot (its heap allocations die with it), remap fresh
    code/heap/stack and clone a new thread executing in the {e same}
    slot.  Intermediate-data buffers live in the libos heap and are
    untouched. *)

val destroy : t -> unit
(** Unmap everything and reclaim resources: the address space's pages
    go back to the calling domain's page pool.  Idempotent. *)

(** {1 Template pools}

    A serving layer keeps one warm template WFD per endpoint and boots
    each request's WFD from it.  Cloning a new WFD per request and
    destroying it afterwards dominates host cost at 10⁵–10⁷ requests,
    so a pool also keeps finished request WFDs ("shells") reset to the
    template image.  {!bind} is the one warm boot: it takes a pooled
    shell or builds a new one, then charges the clone's virtual
    effects once — one id draw, the system partition's mappings,
    process spawn and RSS, {!Cost.wfd_clone} and a pkey-alloc.  Every
    virtual observable is therefore the same whichever shell a request
    got, and pooling is a host-only optimisation.

    A shell is held by one bound request at a time and a new one is
    built only when the pool is empty, so a pool never holds more
    shells than the most requests that were bound at once.  A pool
    lives until {!drain}. *)

type pool

val pool : t -> pool
(** An empty pool over a booted, warm template. *)

val bind :
  ?fault:Sim.Fault.t ->
  pool ->
  proc_table:Hostos.Process.t ->
  clock:Sim.Clock.t ->
  t
(** Boot a WFD for one request from the pool's template.  The WFD
    inherits the template's loaded modules and entry table; its buffer
    heap, module state, stdout and function slots start empty, and it
    lives in [proc_table] under its own pid.

    Without [fault] the WFD is a pooled shell when one is free, else a
    new one, and it shares the template's fault plan.  With [fault]
    it is always a new shell armed with that plan, and {!release}
    destroys it instead of pooling it.

    The WFD always gets a private disk: a reused shell keeps its own,
    re-formatted by {!release}, and a new shell gets a fresh FAT image
    wrapped with [fault].  Parallel serving needs this, because the
    template's image is host-shared mutable state.  Raises
    [Invalid_argument] if the pool was drained. *)

val release : pool -> t -> bool
(** Return a cleanly finished WFD bound from the pool.  It is reset
    to the template image (host-only: no clock, no global counter; it
    leaves its process table and holds no process entry while pooled)
    and pooled, and [release] returns [true].  A WFD bound with its own
    fault plan, or released after {!drain}, is destroyed instead and
    [release] returns [false].  Before {!drain} the result depends
    only on the bind, never on the pool's occupancy.  A WFD that
    failed mid-request should be {!destroy}ed, not released.  A pooled
    shell keeps its disk, re-formatted in place; a disk that cannot be
    re-formatted (a fault-wrapped one, bound with the template's own
    plan) raises [Invalid_argument] rather than fall back to the
    template's shared image. *)

val drain : pool -> unit
(** Destroy the pool's shells and its template.  Later releases
    destroy, and binds raise.  Call it once no bound WFD of the pool
    is still running. *)

val live_count : unit -> int
(** Number of created-but-not-destroyed WFDs across the whole process —
    the leak detector long-lived servers watch. *)

(** {1 Deterministic id allocation}

    WFD ids appear in trace text (["wfd%d ..."]), so parallel tasks
    must not draw them from the shared counter in host-completion
    order.  A submitter reserves a contiguous range per task with
    {!reserve_ids} and the task allocates inside it under
    {!with_id_namespace}; ids then depend only on submission index. *)

val reserve_ids : int -> int
(** [reserve_ids n] claims [n] ids from the global counter and returns
    [base]; the reserved ids are [base+1 .. base+n]. *)

val with_id_namespace : base:int -> (unit -> 'a) -> 'a
(** Run [f] with WFD ids allocated locally as [base+1, base+2, ...]
    (domain-local; restored on exit, exceptions included). *)

val mapped_bytes : t -> int
val is_loaded : t -> string -> bool
