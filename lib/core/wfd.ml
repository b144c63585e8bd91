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

(* [id], [pid] and [proc_table] are mutable only so a pooled shell can
   be re-bound to its next request by {!bind}; nothing else writes
   them after construction. *)
type t = {
  mutable id : int;
  workflow_name : string;
  features : features;
  aspace : Address_space.t;
  buffer_alloc : Alloc.t;
  loaded_modules : (string, unit) Hashtbl.t;
  entry_table : (string, string) Hashtbl.t;
  ext : Ext.t;
  vfs : Fsim.Vfs.t;
  fault : Fault.t option;
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

(* The user-context rights of each function key, built once: a spawn
   reads its slot's word instead of folding a key list. *)
let user_pkru_of_key =
  Array.init 16 (fun k ->
      Prot.pkru_deny_all_except [ Prot.key_of_int k; buffer_key; Prot.default_key ])

let user_pkru_for t slot = user_pkru_of_key.(Prot.key_to_int (function_key t slot))

(* The [pid] of a WFD with no process entry: a pooled shell. *)
let no_pid = 0

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
   never on host interleaving.  The namespace is one mutable cell per
   domain, saved and restored around the task, so entering it
   allocates nothing. *)
type id_namespace = { mutable ns_on : bool; mutable ns_last : int }

let id_ns_key = Domain.DLS.new_key (fun () -> { ns_on = false; ns_last = 0 })

let fresh_id () =
  let ns = Domain.DLS.get id_ns_key in
  if ns.ns_on then begin
    ns.ns_last <- ns.ns_last + 1;
    ns.ns_last
  end
  else Atomic.fetch_and_add next_id 1 + 1

let reserve_ids n = Atomic.fetch_and_add next_id n

let with_id_namespace ~base f =
  let ns = Domain.DLS.get id_ns_key in
  let on = ns.ns_on and last = ns.ns_last in
  ns.ns_on <- true;
  ns.ns_last <- base;
  match f () with
  | v ->
      ns.ns_on <- on;
      ns.ns_last <- last;
      v
  | exception e ->
      ns.ns_on <- on;
      ns.ns_last <- last;
      raise e

(* Boot the system partition into [aspace] and start its process:
   visor and libos code on the system key, trampoline pages
   user-executable on the default key (they run in user context before
   raising rights).  The libos heap region is *address space* for
   AsBuffers; its pages are mapped per allocation.  The mapped
   partition is resident from the start, so the new process is charged
   for it.  [create] and [bind] both boot here; each charges its own
   clock costs. *)
let boot_system aspace ~proc_table ~clock ~name =
  Address_space.map aspace ~addr:Layout.visor_code.Layout.base
    ~len:Layout.visor_code.Layout.size ~perm:Page.rx ~pkey:system_key;
  Address_space.map aspace ~addr:Layout.libos_code.Layout.base
    ~len:Layout.libos_code.Layout.size ~perm:Page.rx ~pkey:system_key;
  Address_space.map aspace ~addr:Layout.trampoline.Layout.base
    ~len:Layout.trampoline.Layout.size ~perm:Page.rx ~pkey:Prot.default_key;
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
    ~pkey:key;
  Address_space.map t.aspace ~addr:heap.Layout.base ~len:(mib 1) ~perm:Page.rw
    ~pkey:key;
  Address_space.map t.aspace ~addr:stack.Layout.base ~len:(kib 512) ~perm:Page.rw
    ~pkey:key;
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

let destroy t =
  if not t.destroyed then begin
    let hs = Hotspot.enter "wfd.destroy" in
    t.destroyed <- true;
    live_decr ();
    t.tap <- None;
    if t.pid <> no_pid then Hostos.Process.exit_process t.proc_table t.pid;
    (* Unmap everything: the pages go back to this domain's page pool
       for the next WFD instead of floating until the major GC finds
       them. *)
    Address_space.recycle t.aspace;
    Hotspot.leave hs
  end

(* A template pool: the warm template WFD plus the finished request
   WFDs ("shells") reset to its image.  Workers bind and release from
   any domain, so the free list sits behind [mu]. *)
type pool = { template : t; mu : Mutex.t; mutable free : t list }

let pool template = { template; mu = Mutex.create (); free = [] }

(* A shell's module and entry tables start as copies of the
   template's and only ever grow: a module load adds its name and
   entries and never rebinds a key.  So equal sizes mean equal contents
   (the warm steady state, where nothing is done), and otherwise
   removing the keys the template lacks restores the copy. *)
let drop_added ~template tbl =
  if Hashtbl.length tbl <> Hashtbl.length template then
    List.iter (Hashtbl.remove tbl)
      (Hashtbl.fold (fun k _ acc -> if Hashtbl.mem template k then acc else k :: acc) tbl [])

(* Reset a finished shell back to the template image without
   re-allocating its address space, page table, TLB arena, tables,
   buffers or disk.  Pure host work: no clock is charged and no global
   counter is touched.  The shell leaves its request's process table,
   so a pooled shell holds no process entry; it stays [live] (it still
   owns its arenas) until {!drain} destroys it. *)
let recycle ~template t =
  let hs = Hotspot.enter "wfd.recycle" in
  (* The shell keeps its private disk, re-formatted in place (a
     recycled image behaves bit-identically to a fresh one).  Only a
     shell that shares the template's fault plan is pooled, and its
     disk is an unwrapped FAT image, so a disk that will not re-format
     is a broken invariant, never a case to paper over with the
     template's shared image; the shell is left as it was. *)
  if not (Fsim.Vfs.recycle t.vfs) then begin
    Hotspot.leave hs;
    invalid_arg "Wfd.release: the shell's disk cannot be re-formatted"
  end;
  Hostos.Process.exit_process t.proc_table t.pid;
  t.pid <- no_pid;
  Address_space.recycle t.aspace;
  Alloc.reset t.buffer_alloc;
  drop_added ~template:template.loaded_modules t.loaded_modules;
  drop_added ~template:template.entry_table t.entry_table;
  Ext.clear t.ext;
  t.tap <- None;
  (* [Buffer.reset], not [clear]: a pooled shell must not retain a
     request's grown stdout storage. *)
  Buffer.reset t.stdout;
  t.next_fn_slot <- 0;
  t.entry_misses <- 0;
  t.entry_hits <- 0;
  t.trampoline_crossings <- 0;
  t.span <- Span.none;
  Hotspot.leave hs

(* A new shell of [template]: the system partition, loaded module
   namespaces and entry table come along (CoW-shared read-only pages);
   the buffer heap, module state, stdout and function slots start
   fresh, and [vfs] is its private disk.  Host work only — {!bind}
   boots it and sets its id, pid and process table. *)
let new_shell ?fault ~vfs template =
  Atomic.incr live;
  let fault = match fault with Some _ -> fault | None -> template.fault in
  {
    id = 0;
    workflow_name = template.workflow_name;
    features = template.features;
    aspace = Address_space.create ();
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
    pid = no_pid;
    proc_table = template.proc_table;
    next_fn_slot = 0;
    destroyed = false;
    entry_misses = 0;
    entry_hits = 0;
    trampoline_crossings = 0;
    span = Span.none;
  }

(* The clone's virtual effects, charged the same way for either shell:
   one id draw, [boot_system]'s mappings, process spawn and RSS, and
   [Cost.wfd_clone] + pkey-alloc instead of the full create +
   entry-table path. *)
let boot_shell t tpl ~proc_table ~clock =
  t.id <- fresh_id ();
  t.pid <- boot_system t.aspace ~proc_table ~clock ~name:tpl.workflow_name;
  t.proc_table <- proc_table;
  Clock.advance clock Cost.wfd_clone;
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Pkey_alloc)

(* Pop a pooled shell, or return [None] when the pool is empty. *)
let take_shell p =
  Mutex.lock p.mu;
  let shell =
    match p.free with
    | [] -> None
    | s :: rest ->
        p.free <- rest;
        Some s
  in
  Mutex.unlock p.mu;
  shell

let bind ?fault p ~proc_table ~clock =
  let tpl = p.template in
  if tpl.destroyed then invalid_arg "Wfd.bind: template destroyed";
  (* A request with its own plan needs a shell whose buffer heap was
     armed with that plan, so it never takes a pooled one.  Every
     request gets a private disk, because the template's image is
     host-shared mutable state: a pooled shell's re-formatted image,
     or a new shell's fresh one. *)
  let t =
    match if Option.is_some fault then None else take_shell p with
    | Some s ->
        let hs = Hotspot.enter "wfd.acquire" in
        boot_shell s tpl ~proc_table ~clock;
        Hotspot.leave hs;
        s
    | None ->
        (* A new shell's disk is a fresh FAT image, wrapped with
           [fault] when the request brings its own plan. *)
        let disk =
          let hs = Hotspot.enter "vfs.fresh" in
          let d = Fsim.Vfs.fresh_fat () in
          Hotspot.leave hs;
          d
        in
        let vfs =
          match fault with Some plan -> Fsim.Vfs.with_faults plan disk | None -> disk
        in
        let hs = Hotspot.enter "wfd.clone" in
        let s = new_shell ?fault ~vfs tpl in
        boot_shell s tpl ~proc_table ~clock;
        Hotspot.leave hs;
        s
  in
  t

(* A shell bound with the request's own plan carries a fresh [Some]
   and cannot be pooled; every other shell shares the template's
   [fault] value.  Once {!drain} destroyed the template, nothing is
   pooled, so a late release cannot leak a shell. *)
let release p t =
  if t.destroyed then invalid_arg "Wfd.release: WFD destroyed";
  if p.template.destroyed || t.fault != p.template.fault then begin
    destroy t;
    false
  end
  else begin
    recycle ~template:p.template t;
    Mutex.lock p.mu;
    p.free <- t :: p.free;
    Mutex.unlock p.mu;
    true
  end

let drain p =
  List.iter destroy p.free;
  p.free <- [];
  destroy p.template

let mapped_bytes t = Address_space.mapped_bytes t.aspace

let is_loaded t name = Hashtbl.mem t.loaded_modules name
