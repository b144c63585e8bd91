(** Shared stage-execution engine for the baseline platforms.

    All comparison systems run the same loop the AlloyStack
    orchestrator runs — dispatch each stage's instances, execute their
    kernels, list-schedule the measured durations on the host cores —
    differing only in the hooks: how an instance's sandbox boots, how
    the {!Fctx.t} transport is wired, and what memory each instance
    pins. *)

open Workloads

type instance_info = {
  stage_index : int;
  fn_name : string;
  instance : int;
  total : int;
}

type hooks = {
  boot : instance_info -> Sim.Clock.t -> unit;
      (** Bring up the instance's sandbox/thread; clock advances by the
          boot cost. *)
  make_fctx :
    instance_info ->
    clock:Sim.Clock.t ->
    phase:(string -> (unit -> unit) -> unit) ->
    Fctx.t;
  instance_rss : instance_info -> int;
      (** Resident bytes while the instance is alive. *)
  cpu_tax : float;  (** Sandbox slowdown applied to measured durations. *)
}

type result = {
  e2e : Sim.Units.time;
  cold_start : Sim.Units.time;
  phase_totals : (string * Sim.Units.time) list;
  cpu_time : Sim.Units.time;
  peak_rss : int;
}

val run :
  ?trigger_overhead:Sim.Units.time ->
  hooks ->
  (string * int * Fctx.kernel) list ->
  result
(** Execute the app's stages on the 64-core host of
    {!Alloystack_core.Visor.default_config}, dispatching instances
    {!Alloystack_core.Cost.dispatch_latency} apart.  [trigger_overhead]
    models the platform's gateway/controller work before the first
    sandbox starts. *)
