open Sim
open Mem

type features = { on_demand : bool; ref_passing : bool; ifi : bool }

let default_features = { on_demand = true; ref_passing = true; ifi = false }

type thread = {
  fn_slot : int;
  clock : Clock.t;
  mutable pkru : Prot.pkru;
  user_pkru : Prot.pkru;
}

(* [id], [vfs], [fault], [pid] and [proc_table] are mutable only so a
   recycled WFD can be re-bound to its next request by {!acquire};
   nothing else writes them after construction. *)
type t = {
  mutable id : int;
  workflow_name : string;
  features : features;
  aspace : Address_space.t;
  buffer_alloc : Alloc.t;
  loaded_modules : (string, unit) Hashtbl.t;
  entry_table : (string, string) Hashtbl.t;
  ext : Ext.t;
  mutable vfs : Fsim.Vfs.t;
  mutable fault : Fault.t option;
  mutable tap : Hostos.Tap.device option;
  stdout : Buffer.t;
  mutable pid : Hostos.Process.pid;
  mutable proc_table : Hostos.Process.t;
  mutable next_fn_slot : int;
  mutable destroyed : bool;
  mutable entry_misses : int;
  mutable entry_hits : int;
  mutable trampoline_crossings : int;
  mutable span : Span.id;
}

let system_key = Prot.key_of_int 1
let shared_user_key = Prot.key_of_int 2
let buffer_key = Prot.key_of_int 3

(* IFI keys rotate through 4..15; beyond twelve isolated functions keys
   are reused (hardware has only 16). *)
let ifi_key_base = 4
let ifi_key_count = 12

let function_key t slot =
  if t.features.ifi then Prot.key_of_int (ifi_key_base + (slot mod ifi_key_count))
  else shared_user_key

let system_pkru = Prot.pkru_allow_all

let user_pkru_for t slot =
  Prot.pkru_deny_all_except [ function_key t slot; buffer_key; Prot.default_key ]

let next_id = Atomic.make 0

let live = Atomic.make 0

let live_count () = Atomic.get live

let rec live_decr () =
  let v = Atomic.get live in
  if v > 0 && not (Atomic.compare_and_set live v (v - 1)) then live_decr ()

(* WFD ids leak into traces ("wfd%d ..."), so parallel tasks must not
   draw them from the shared counter in completion order.  A task runs
   under [with_id_namespace ~base] over a range pre-reserved with
   [reserve_ids]; ids then depend only on the task's submission index,
   never on host interleaving. *)
let id_ns_key : int ref option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let fresh_id () =
  match Domain.DLS.get id_ns_key with
  | Some r ->
      incr r;
      !r
  | None -> Atomic.fetch_and_add next_id 1 + 1

let reserve_ids n = Atomic.fetch_and_add next_id n

let with_id_namespace ~base f =
  let old = Domain.DLS.get id_ns_key in
  Domain.DLS.set id_ns_key (Some (ref base));
  Fun.protect ~finally:(fun () -> Domain.DLS.set id_ns_key old) f

(* Boot the system partition into [aspace] and start its process:
   visor and libos code on the system key, trampoline pages
   user-executable on the default key (they run in user context before
   raising rights).  The libos heap region is *address space* for
   AsBuffers; its pages are mapped per allocation.  The mapped
   partition is resident from the start, so the new process is charged
   for it.  [create], [clone_template] and [acquire] all boot here, so a
   recycled shell's virtual effects equal a fresh clone's by
   construction; each caller charges its own clock costs. *)
let boot_system aspace ~proc_table ~clock ~name =
  Address_space.map aspace ~addr:Layout.visor_code.Layout.base
    ~len:Layout.visor_code.Layout.size ~perm:Page.rx ~pkey:system_key ();
  Address_space.map aspace ~addr:Layout.libos_code.Layout.base
    ~len:Layout.libos_code.Layout.size ~perm:Page.rx ~pkey:system_key ();
  Address_space.map aspace ~addr:Layout.trampoline.Layout.base
    ~len:Layout.trampoline.Layout.size ~perm:Page.rx ~pkey:Prot.default_key ();
  let pid = Hostos.Process.spawn_process proc_table ~at:(Clock.now clock) ~name () in
  Hostos.Process.charge_rss proc_table pid
    (Layout.visor_code.Layout.size + Layout.libos_code.Layout.size
    + Layout.trampoline.Layout.size);
  pid

let create ?(features = default_features) ?vfs ?fault ~proc_table ~clock ~workflow_name () =
  let id = fresh_id () in
  Atomic.incr live;
  let aspace = Address_space.create () in
  let pid = boot_system aspace ~proc_table ~clock ~name:workflow_name in
  let vfs = match vfs with Some v -> v | None -> Fsim.Vfs.fresh_fat () in
  (* Under a fault plan the WFD's disk and buffer heap both become
     injection points; a plan-free WFD pays nothing. *)
  let vfs = match fault with Some plan -> Fsim.Vfs.with_faults plan vfs | None -> vfs in
  Clock.advance clock Cost.wfd_create;
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Pkey_alloc);
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Pkey_mprotect);
  {
    id;
    workflow_name;
    features;
    aspace;
    buffer_alloc =
      Alloc.create ?fault ~base:Layout.libos_heap.Layout.base
        ~size:Layout.libos_heap.Layout.size ();
    loaded_modules = Hashtbl.create 8;
    entry_table = Hashtbl.create 16;
    ext = Ext.create ();
    vfs;
    fault;
    tap = None;
    stdout = Buffer.create 256;
    pid;
    proc_table;
    next_fn_slot = 0;
    destroyed = false;
    entry_misses = 0;
    entry_hits = 0;
    trampoline_crossings = 0;
    span = Span.none;
  }

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* Map a fresh working set for a slot: code, an initial heap arena and
   the thread stack.  Exclusive segments per function (§6(1)). *)
let map_slot t slot =
  let key = function_key t slot in
  let code = Layout.function_code slot in
  let heap = Layout.function_heap slot in
  let stack = Layout.function_stack slot in
  Address_space.map t.aspace ~addr:code.Layout.base ~len:(kib 256) ~perm:Page.rx
    ~pkey:key ();
  Address_space.map t.aspace ~addr:heap.Layout.base ~len:(mib 1) ~perm:Page.rw
    ~pkey:key ();
  Address_space.map t.aspace ~addr:stack.Layout.base ~len:(kib 512) ~perm:Page.rw
    ~pkey:key ();
  Hostos.Process.charge_rss t.proc_table t.pid (kib 256 + mib 1 + kib 512)

let clone_into_slot t slot ~clock =
  (* The orchestrator clones the thread; the new thread starts once the
     clone returns and its runtime glue is set up. *)
  let main = Hostos.Process.main_thread t.proc_table t.pid in
  Clock.advance_to main.Hostos.Process.clock (Clock.now clock);
  let th = Hostos.Process.clone_thread t.proc_table t.pid in
  Clock.advance th.Hostos.Process.clock Cost.function_thread_start;
  let user_pkru = user_pkru_for t slot in
  { fn_slot = slot; clock = th.Hostos.Process.clock; pkru = user_pkru; user_pkru }

let spawn_function_thread t ~clock =
  if t.destroyed then invalid_arg "Wfd.spawn_function_thread: WFD destroyed";
  let slot = t.next_fn_slot in
  t.next_fn_slot <- slot + 1;
  map_slot t slot;
  clone_into_slot t slot ~clock

let respawn_function_thread t ~slot ~clock =
  if t.destroyed then invalid_arg "Wfd.respawn_function_thread: WFD destroyed";
  if slot < 0 || slot >= t.next_fn_slot then
    invalid_arg "Wfd.respawn_function_thread: slot was never spawned";
  (* Drop every mapping in the slot (heap-unit recovery): the crashed
     function's heap, stack, code and any anonymous mmaps vanish. *)
  let region = Layout.function_slot slot in
  Address_space.unmap t.aspace ~addr:region.Layout.base ~len:region.Layout.size;
  Hostos.Process.release_rss t.proc_table t.pid (kib 256 + mib 1 + kib 512);
  map_slot t slot;
  clone_into_slot t slot ~clock

(* CoW-clone a warm template into a fresh WFD: the system partition,
   loaded module namespaces and entry table come along with the clone
   (shared read-only pages); mutable per-request state (buffer heap,
   module state, stdout, function slots) starts fresh.  The clone gets
   its own process-table entry charged the same resident base as a
   created WFD, and pays Cost.wfd_clone instead of wfd_create +
   entry_table_init. *)
let clone_template ?vfs ?fault template ~proc_table ~clock =
  Hotspot.with_section "wfd.clone" @@ fun () ->
  if template.destroyed then invalid_arg "Wfd.clone_template: template destroyed";
  (* [vfs] / [fault] override the template's shared disk image and plan
     for this clone.  Parallel serving uses this: the template's vfs is
     host-shared mutable state, so each request clones onto a private
     image wrapped with its own fault plan. *)
  let vfs = match vfs with Some v -> v | None -> template.vfs in
  let fault = match fault with Some _ as f -> f | None -> template.fault in
  let id = fresh_id () in
  Atomic.incr live;
  let aspace = Address_space.create () in
  let pid = boot_system aspace ~proc_table ~clock ~name:template.workflow_name in
  Clock.advance clock Cost.wfd_clone;
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Pkey_alloc);
  {
    id;
    workflow_name = template.workflow_name;
    features = template.features;
    aspace;
    buffer_alloc =
      Alloc.create ?fault ~base:Layout.libos_heap.Layout.base
        ~size:Layout.libos_heap.Layout.size ();
    loaded_modules = Hashtbl.copy template.loaded_modules;
    entry_table = Hashtbl.copy template.entry_table;
    ext = Ext.create ();
    vfs;
    fault;
    tap = None;
    stdout = Buffer.create 256;
    pid;
    proc_table;
    next_fn_slot = 0;
    destroyed = false;
    entry_misses = 0;
    entry_hits = 0;
    trampoline_crossings = 0;
    span = Span.none;
  }

let destroy t =
  if not t.destroyed then
    Hotspot.with_section "wfd.destroy" @@ fun () ->
    t.destroyed <- true;
    live_decr ();
    (match t.tap with Some _ -> t.tap <- None | None -> ());
    Hostos.Process.exit_process t.proc_table t.pid

(* Reset a finished clone back to its template image, so {!acquire} can
   re-bind it to a later request without re-allocating the address
   space, page table, TLB arena, hash tables or buffers.  Pure host
   work: no clock is charged and no global counter is touched (exactly
   like {!destroy} followed by a fresh clone's [Address_space.create]).
   The shell stays [live] while pooled; only {!destroy} retires it. *)
let recycle ~template t =
  Hotspot.with_section "wfd.recycle" @@ fun () ->
  if t.destroyed then invalid_arg "Wfd.recycle: WFD destroyed";
  if template.destroyed then invalid_arg "Wfd.recycle: template destroyed";
  Address_space.recycle t.aspace;
  Alloc.reset t.buffer_alloc;
  (* The clone's tables start as exact copies of the template's and
     only ever grow (module loads add entries, never remove), so equal
     sizes mean equal contents — the warm steady state, where the
     re-copy is skipped entirely. *)
  if Hashtbl.length t.loaded_modules <> Hashtbl.length template.loaded_modules
  then begin
    Hashtbl.reset t.loaded_modules;
    Hashtbl.iter (Hashtbl.replace t.loaded_modules) template.loaded_modules
  end;
  if Hashtbl.length t.entry_table <> Hashtbl.length template.entry_table then begin
    Hashtbl.reset t.entry_table;
    Hashtbl.iter (Hashtbl.replace t.entry_table) template.entry_table
  end;
  Ext.clear t.ext;
  (* A private per-request scratch disk is re-formatted in place and
     kept for the shell's next request (a recycled image is
     bit-identical in behaviour to the fresh one the next clone would
     have formatted); anything else — the template's shared image, or
     a backend without in-place reset — is dropped back to the
     template's so the pooled shell doesn't pin it. *)
  if not (t.vfs != template.vfs && Fsim.Vfs.recycle t.vfs) then
    t.vfs <- template.vfs;
  t.fault <- template.fault;
  t.tap <- None;
  (* [Buffer.reset], not [clear]: a pooled shell must not retain a
     request's grown stdout storage. *)
  Buffer.reset t.stdout;
  t.proc_table <- template.proc_table;
  t.pid <- template.pid;
  t.next_fn_slot <- 0;
  t.entry_misses <- 0;
  t.entry_hits <- 0;
  t.trampoline_crossings <- 0;
  t.span <- Span.none

(* Bind a recycled shell to its next request.  Mirrors
   {!clone_template}'s virtual effects exactly — same id draw, same
   [boot_system] (base mappings, hence the same TLB-flush counter
   traffic, process spawn and RSS charge), same [Cost.wfd_clone] +
   pkey-alloc clock charges — so a request served by a recycled WFD is
   indistinguishable, in every virtual observable, from one served by
   a fresh clone.  The shell
   keeps the template's fault plan (its buffer heap was armed with it
   at clone time); requests carrying a per-request plan must clone
   fresh instead. *)
let acquire ?vfs ~template t ~proc_table ~clock =
  Hotspot.with_section "wfd.acquire" @@ fun () ->
  if t.destroyed then invalid_arg "Wfd.acquire: WFD destroyed";
  if template.destroyed then invalid_arg "Wfd.acquire: template destroyed";
  (* [None] keeps the shell's current image: its recycled private
     scratch disk when {!recycle} kept one, the template's otherwise —
     exactly what the matching clone would have been given. *)
  let vfs = match vfs with Some v -> v | None -> t.vfs in
  t.id <- fresh_id ();
  let pid = boot_system t.aspace ~proc_table ~clock ~name:template.workflow_name in
  Clock.advance clock Cost.wfd_clone;
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Pkey_alloc);
  t.vfs <- vfs;
  t.pid <- pid;
  t.proc_table <- proc_table;
  t

let mapped_bytes t = Address_space.mapped_bytes t.aspace

let is_loaded t name = Hashtbl.mem t.loaded_modules name
