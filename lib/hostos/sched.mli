(** Stage scheduler: list scheduling of parallel tasks on limited CPUs.

    AlloyStack's orchestrator runs a DAG stage's function instances as
    parallel Linux threads managed by CFS.  With [cores] CPUs and more
    runnable threads than cores, threads queue; the makespan of a stage
    is therefore the classic greedy list-scheduling result.  A small
    per-dispatch scheduling latency models the control-plane jitter that
    produces fan-in waiting in Fig. 15. *)

type placement = {
  core : int;
  start : Sim.Units.time;
  finish : Sim.Units.time;
}

type pool
(** A persistent set of cores whose per-core busy horizon survives
    across {!schedule_on} calls — the shared machine that a serving
    visor multiplexes independent in-flight workflows onto. *)

val pool : cores:int -> pool

val pool_cores : pool -> int

val reset_pool : pool -> Sim.Units.time -> unit
(** [reset_pool p t0] rewinds [p] in place to the freshly-created
    all-cores-free-at-[t0] state, without allocating. *)

val scratch : cores:int -> pool
(** A domain-local scratch pool of [cores] cores, reset to all-free at
    zero.  Reuses one arena per (domain, core count): the caller owns
    the result only until its next [scratch] call with the same core
    count on the same domain.  Serving trajectories use this for their
    per-attempt private pools instead of allocating per attempt. *)

val busy_until : pool -> Sim.Units.time
(** Latest instant at which any core of the pool is still busy.  O(1):
    the pool tracks the running maximum incrementally. *)

val schedule_on :
  pool ->
  ?ready:Sim.Units.time ->
  ?dispatch_latency:Sim.Units.time ->
  Sim.Units.time list ->
  placement list
(** Like {!schedule}, but places tasks onto the pool's cores without
    resetting their busy horizons: tasks start no earlier than [ready]
    and no earlier than their core frees up from previously scheduled
    work (possibly belonging to another workflow). *)

val schedule :
  cores:int ->
  ?ready:Sim.Units.time ->
  ?dispatch_latency:Sim.Units.time ->
  Sim.Units.time list ->
  placement list
(** [schedule ~cores durations] places each task (in order) on the
    earliest-available core, no earlier than [ready].  The i-th
    placement corresponds to the i-th duration.  [dispatch_latency] is
    added before each task's start (sequential dispatch by the
    orchestrator). *)

val makespan : placement list -> Sim.Units.time
(** Latest finish time; zero for no placements. *)

val fan_in_wait : placement list -> Sim.Units.time list
(** For each task, how long it waits at the stage barrier for the
    slowest sibling: [makespan - finish_i]. *)

val same_core_pairs : placement list -> (int * int) list
(** Index pairs of tasks that run back to back on the same core, in
    each core's execution order (sorted by start time, not list
    position) — used by the locality model for reference-passing
    transfers.  Pairs are returned sorted. *)
