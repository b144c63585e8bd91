open Sim

type profile = {
  name : string;
  startup : Units.time;
  compile_per_instr : Units.time;
  exec_per_kinstr : Units.time;
  interp_per_instr : Units.time;
}

(* Native baseline on the simulated Xeon: ~0.5ns per abstract machine
   instruction.  WAVM (LLVM) reaches ~1.1x native on this kind of code;
   Wasmtime (Cranelift) is 30% slower than WAVM (§8.5 / [22,69]). *)
let native_per_instr_ns = 0.5

let wavm =
  {
    name = "WAVM";
    startup = Units.ms 4;
    compile_per_instr = Units.ns 2600;  (* LLVM -O2-ish *)
    exec_per_kinstr = Units.ns_f (native_per_instr_ns *. 1.1 *. 1000.0);
    interp_per_instr = Units.ns 9;
  }

let wasmtime =
  {
    name = "Wasmtime";
    startup = Units.ms_f 2.4;
    compile_per_instr = Units.ns 820;  (* Cranelift compiles faster *)
    exec_per_kinstr = Units.ns_f (native_per_instr_ns *. 1.1 *. 1.3 *. 1000.0);
    interp_per_instr = Units.ns 11;
  }

let cpython_init = Units.ms 1860

type loaded = { profile : profile; compiled : Aot.compiled; module_ : Wmodule.t }

let load ?cache ?fault profile ~clock m =
  Clock.advance clock profile.startup;
  let compile_now () =
    (* A fired loader fault models a transient dlmopen failure while
       the engine loads this module: the half-built namespace is
       discarded, the engine restarts, and the load repeats the slow
       path.  The check sits inside the fill thunk so a fired fault
       can never leave a half-built entry in the compile cache. *)
    (match fault with
    | Some plan when Fault.check ~at:(Clock.now clock) plan ~site:Fault.site_loader_load ->
        Clock.advance clock profile.startup;
        Fault.record_recovery plan ~at:(Clock.now clock) ~site:Fault.site_loader_load
          ("slow-path reload of wasm module " ^ m.Wmodule.name)
    | _ -> ());
    Aot.compile m
  in
  let compiled =
    match cache with
    | None -> compile_now ()
    | Some c -> Compile_cache.find_or_compile c m ~compile:compile_now
  in
  (* Virtual compile time is charged whether or not the cache hit: the
     cache saves host work only, keeping simulated results identical. *)
  Clock.advance clock
    (Units.scale profile.compile_per_instr (float_of_int (Wmodule.code_size m)));
  { profile; compiled; module_ = m }

(* Linker binding + linear memory allocation. *)
let instantiate_cost m =
  Units.add (Units.us 140)
    (Units.us (8 * List.length m.Wmodule.imports))

let instantiate loaded ~clock ~system =
  Clock.advance clock (instantiate_cost loaded.module_);
  Aot.instantiate ~hosts:(Wasi.aot_imports system) loaded.compiled

let run loaded ~clock ~instance name args =
  let before = Aot.executed instance in
  let result = Aot.call instance name args in
  let retired = Aot.executed instance - before in
  Clock.advance clock
    (Units.scale loaded.profile.exec_per_kinstr (float_of_int retired /. 1000.0));
  result

let image_of loaded = Aot.to_image loaded.compiled

let slowdown_vs_native p =
  Int64.to_float (Units.to_ns p.exec_per_kinstr) /. (native_per_instr_ns *. 1000.0)
