(** WASM runtime profiles and virtual-time charging.

    Wasmtime (Cranelift) and WAVM (LLVM) differ mainly in code quality
    and compile cost: the paper measures Wasmtime ~30% slower at
    execution (§8.5).  A runtime profile fixes the startup cost, AOT
    compile rate and per-instruction execution cost; {!run} executes a
    compiled module for real and charges virtual time from the retired
    instruction count. *)

type profile = {
  name : string;
  startup : Sim.Units.time;  (** Runtime init (engine, linker). *)
  compile_per_instr : Sim.Units.time;  (** AOT compile time per static instr. *)
  exec_per_kinstr : Sim.Units.time;
      (** Charged per 1000 retired instructions (sub-ns per-instr costs
          are not representable in integer nanoseconds). *)
  interp_per_instr : Sim.Units.time;  (** When no AOT (fallback). *)
}

val wasmtime : profile
(** Cranelift codegen, [no_std] configuration (as AlloyStack embeds it). *)

val wavm : profile
(** LLVM codegen (as Faasm embeds it); ~30% faster execution, slower
    compilation. *)

val cpython_init : Sim.Units.time
(** Cost of booting the CPython-on-WASM runtime before the first line
    of user Python executes — the dominant term in AS-Py / Faasm-Py
    cold starts (Fig. 10). *)

type loaded

val load :
  ?cache:Compile_cache.t ->
  ?fault:Sim.Fault.t ->
  profile ->
  clock:Sim.Clock.t ->
  Wmodule.t ->
  loaded
(** AOT-compile under the profile, charging startup + compile time.

    [cache] memoizes the host-side compilation by module content hash;
    virtual startup and compile costs are charged identically on hit
    and miss, so the cache changes host time only.  [fault] is checked
    at {!Sim.Fault.site_loader_load}: a fired fault charges one extra
    engine restart and records a recovery, and — because the check runs
    inside the cache-fill path — never commits a half-built cache
    entry. *)

val instantiate :
  loaded -> clock:Sim.Clock.t -> system:Wasi.system -> Aot.instance
(** Instance creation (memory + linker binding), charged. *)

val run :
  loaded ->
  clock:Sim.Clock.t ->
  instance:Aot.instance ->
  string ->
  int64 array ->
  int64
(** Call an export; afterwards the clock advances by
    [retired_instructions * exec_per_instr]. *)

val image_of : loaded -> Isa.Image.t
(** For blacklist scanning before admission. *)

val slowdown_vs_native : profile -> float
