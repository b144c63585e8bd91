(** Sandbox boot models.

    Each comparison system boots through an ordered list of named
    stages; the per-stage costs are calibrated to published numbers
    (Fig. 2 and Fig. 10 of the paper, plus the cited Firecracker,
    Unikraft, Virtines and gVisor papers).  Booting advances the caller's
    clock stage by stage and returns the per-stage breakdown, so benches
    can both report totals and attribute where time goes. *)

type stage = { label : string; cost : Sim.Units.time }

type profile = {
  name : string;
  stages : stage list;
  mem_overhead : int;
      (** Resident bytes the sandbox itself consumes (guest kernel,
          runtime, VMM) — drives Fig. 17b. *)
  cpu_tax : float;
      (** Fractional slowdown imposed on guest computation (e.g. nested
          paging overhead in a MicroVM, §8.6). *)
}

val total : profile -> Sim.Units.time

type boot_report = {
  profile_name : string;
  stage_times : (string * Sim.Units.time) list;
  total_time : Sim.Units.time;
}

val boot : profile -> Sim.Clock.t -> boot_report
(** Advance the clock through every stage. *)
