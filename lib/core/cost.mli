(** Calibrated cost model for AlloyStack-specific operations.

    Every constant is documented with the paper measurement it
    reproduces.  Substrate-level costs (syscalls, TCP, filesystems,
    sandbox boots) live in their own libraries; this module covers the
    WFD control plane and the single-address-space data plane. *)

(** {1 MPK / trampoline} *)

val wrpkru : Sim.Units.time
(** One PKRU register write (~30ns on Ice Lake-class cores). *)

val trampoline_switch : Sim.Units.time
(** One direction of the as-std trampoline: save context, switch stack,
    [wrpkru], jump (§7.1, Fig. 9). *)

val ifi_transfer_overhead : int -> Sim.Units.time
(** Extra per-side cost with inter-function isolation enabled for a
    transfer of [n] bytes: the key grant/drop brackets around buffer
    access plus a small per-byte term.  Calibrated so AS-IFI is +33.7%
    at 4 KB and +0.8% at 16 MB (Fig. 11). *)

(** {1 WFD cold start (Fig. 10)} *)

val visor_dispatch : Sim.Units.time
(** Watchdog event handling + orchestrator dispatch: ~78 µs (§4). *)

val wfd_create : Sim.Units.time
(** Address-space regions, pkey allocation, trampoline pages, base
    as-std binding.  Together with {!visor_dispatch}, thread clone and
    entry-table init this yields the paper's 1.3 ms cold start. *)

val function_thread_start : Sim.Units.time
(** Per-function-thread setup beyond the clone syscall: stack mapping,
    TLS, entry-table wiring. *)

val dispatch_latency : Sim.Units.time
(** Orchestrator dispatch per function thread: a stage's threads start
    one dispatch apart, the first one dispatch after the stage is
    ready.  The baseline platforms' stage runner uses the same rate. *)

val entry_table_init : Sim.Units.time

val image_scan_per_kb : Sim.Units.time
(** Blacklist scanning rate (performed before workflow start, not on
    the critical path; reported separately). *)

(** {1 Warm serving (template WFD pool)} *)

val wfd_clone : Sim.Units.time
(** CoW-cloning a warm template WFD per request instead of building a
    fresh address space: substitutes for {!wfd_create} +
    {!entry_table_init}. *)

val warm_module_attach : Sim.Units.time
(** Re-attaching one already-linked as-libos module to a cloned WFD
    (per-WFD state re-init only; the namespace is shared CoW). *)

val warm_runtime_resume : Sim.Units.time
(** Resuming the template's booted WASM engine / CPython state in a
    clone instead of paying the full runtime startup. *)

val admission_cache_hit : Sim.Units.time
(** Content-hash lookup that replaces a blacklist re-scan for an
    already-admitted image. *)

(** {1 as-libos module loading (§4, Fig. 10 "AS-load-all")} *)

val dlmopen_namespace : Sim.Units.time
(** Creating the link namespace for a module (find_hostcall path). *)

val module_load : string -> Sim.Units.time
(** Per-module load + init cost.  The sum over all modules plus
    {!load_all_binding} equals the paper's 88.1 ms load-all delta.
    Raises [Invalid_argument] for an unknown module name. *)

val load_all_binding : Sim.Units.time
(** Entry-table binding for the full module set when on-demand loading
    is disabled. *)

(** {1 Reference-passing data plane (Fig. 11)} *)

val smart_pointer_overhead : Sim.Units.time
(** AsBuffer smart-pointer construction: ~4.4 µs (§8.3). *)

val buffer_copy_bw_rust : float
(** bytes/s for as-std (Rust) buffer write or read traversal.  16 MB
    write+read at this rate plus the smart pointer = 951 µs. *)

val buffer_copy_bw_c : float
(** WASM -O3 C path: 697 µs per 16 MB round trip. *)

val buffer_copy_bw_python : float
(** CPython string path: 9631 µs per 16 MB round trip. *)

val slot_map_op : Sim.Units.time
(** mm-module slot bookkeeping per alloc/acquire. *)

(** {1 File-based intermediate transfer (Fig. 14 "base")} *)

val file_fallback_sync : Sim.Units.time
(** SSD write-back per staged intermediate file (producer side). *)

val file_fallback_read_penalty : Sim.Units.time
(** First access of the staged file (consumer side). *)

(** {1 Generic memory} *)

val memcpy_bw : float
(** Plain single-thread memcpy (file staging, IPC copies). *)

val page_fault_service : Sim.Units.time
(** Userfaultfd-style page population (mmap_file_backend, Faasm). *)
