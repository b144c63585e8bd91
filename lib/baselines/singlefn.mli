(** Cold-start measurements for the single-function runtimes of
    Fig. 10 (no-ops benchmark): AlloyStack (on-demand and load-all),
    Faastlane-T, Wasmer (process and thread), Virtines, Unikraft,
    gVisor, Kata, Faasm and the Python variants. *)

type entry = { label : string; cold_start : Sim.Units.time }

val figure10 : unit -> entry list
(** Runs the AlloyStack cold starts for real (through {!Visor}) and
    reads the boot models for the comparison systems. *)
