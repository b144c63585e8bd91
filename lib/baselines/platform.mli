(** Common surface every serverless platform implements.

    A platform takes an {!Fctx.app} (workload code is shared — design
    decision 4 of DESIGN.md) and runs it end to end, producing
    comparable metrics. *)

open Workloads

type metrics = {
  platform : string;
  e2e : Sim.Units.time;
  cold_start : Sim.Units.time;  (** Trigger to first user instruction. *)
  phase_totals : (string * Sim.Units.time) list;
  cpu_time : Sim.Units.time;  (** Summed busy time across all threads. *)
  peak_rss : int;  (** Bytes, including sandbox overheads. *)
  validated : (unit, string) result;
}

val phase_total : metrics -> string -> Sim.Units.time

type t = { name : string; run : Fctx.app -> metrics }

val speedup : metrics -> over:metrics -> float
(** [speedup m ~over] = over.e2e / m.e2e — how much faster [m] is. *)

val check_validated : metrics -> unit
(** Raises [Failure] when the run produced a wrong answer — benches
    call this so a miscomputation can never masquerade as a speedup. *)
