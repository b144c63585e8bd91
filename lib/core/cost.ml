open Sim

(* --- MPK / trampoline --- *)

let wrpkru = Units.ns 30

(* Save registers, switch to the system stack, wrpkru, indirect jump. *)
let trampoline_switch = Units.ns (30 + 85)

(* Key grant/drop brackets per transfer, per side: a fixed wrpkru
   sequence plus a small per-byte term (permission re-checks along the
   chunked access).  Calibrated to Fig. 11: +33.7% at 4KB (~2.4us on a
   ~7us transfer) and +0.8% at 16MB (~7.5us on 951us). *)
let ifi_transfer_overhead len =
  Units.add (Units.ns 1_200) (Units.ns_f (0.000155 *. float_of_int len))

(* --- WFD cold start (Fig. 10) --- *)

let visor_dispatch = Units.us 78

(* dlmopen of the base as-std image (380us), heap mmap + pkey_mprotect
   of the partitions (300us), trampoline pages (100us), misc (92us). *)
let wfd_create = Units.us (380 + 300 + 100 + 92)

(* Stack mapping, TLS, entry-table wiring after clone(). *)
let function_thread_start = Units.us 122

(* The orchestrator hands one function thread to the scheduler every
   15us; the baseline platforms' controllers dispatch at the same rate. *)
let dispatch_latency = Units.us 15

let entry_table_init = Units.us 200

let image_scan_per_kb = Units.us 3

(* --- Warm serving (template WFD pool) --- *)

(* Cloning a warm template WFD: CoW-duplicate its page tables and pkey
   assignments and re-point the namespace list, instead of building the
   address space, allocating keys and binding as-std from scratch.
   Calibrated well under the 872us wfd_create + 200us entry-table init
   it substitutes for (a fork of a prepared process image). *)
let wfd_clone = Units.us 180

(* Re-attaching one already-linked as-libos module to a cloned WFD:
   the namespace and its relocations are shared CoW with the template;
   only the per-WFD module state is re-initialised. *)
let warm_module_attach = Units.us 15

(* Resuming an already-booted WASM engine (and CPython heap) captured
   in the template: the JIT code cache and interpreter state come along
   with the clone; only thread-local glue is rebuilt. *)
let warm_runtime_resume = Units.us 250

(* Admission-cache lookup by image content hash (skips the blacklist
   re-scan for a previously admitted image). *)
let admission_cache_hit = Units.us 2

(* --- as-libos module loading --- *)

let dlmopen_namespace = Units.us 380

(* Per-module load+init.  The sum (75.15ms), plus one dlmopen namespace
   per module (2.66ms), the full entry-table binding (8.6ms) and the
   modules' own constructors (FAT mount ~0.9ms, TAP+stack ~0.77ms)
   reproduces the 88.1ms "AS-load-all" delta of Fig. 10. *)
let module_costs =
  [
    (* The common small modules load fast; the networking stack and the
       userfaultfd machinery carry most of the load-all weight — which
       is exactly why on-demand loading pays off for workflows that use
       only 3-5 components (Table 1). *)
    ("mm", Units.us 3_200);
    ("fdtab", Units.us 2_400);
    ("fatfs", Units.us 4_300);
    ("socket", Units.us 43_500);
    ("stdio", Units.us 1_000);
    ("time", Units.us 700);
    ("mmap_file_backend", Units.us 20_050);
  ]

let module_load name =
  match List.assoc_opt name module_costs with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Cost.module_load: unknown module %s" name)

let load_all_binding = Units.us 8_600

(* --- Reference passing (Fig. 11) --- *)

let smart_pointer_overhead = Units.ns 4_400

(* 16MB written + 16MB read at bw + smart pointer = 951us  =>  bw such
   that 32MiB / bw = 946.6us  =>  35.4 GB/s (cache-warm streaming). *)
let buffer_copy_bw_rust = 35.4e9

(* C via wasm -O3: 697us per round trip => 48.1 GB/s effective. *)
let buffer_copy_bw_c = 48.1e9

(* CPython object/string path: 9631us per 16MB round trip => 3.48 GB/s. *)
let buffer_copy_bw_python = 3.48e9

let slot_map_op = Units.ns 350

(* --- File-based intermediate transfer (ref-passing disabled) --- *)

(* The AWS-recommended fallback stages intermediate data through files
   on persistent storage: each handoff pays an SSD write-back/sync on
   the producer side and a first-access penalty on the consumer side,
   on top of the filesystem bandwidth costs. *)
let file_fallback_sync = Units.ms 3
let file_fallback_read_penalty = Units.us 800

(* --- Generic memory --- *)

let memcpy_bw = 11.0e9

let page_fault_service = Units.ns 1_200
