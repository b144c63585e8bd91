open Workloads
type metrics = {
  platform : string;
  e2e : Sim.Units.time;
  cold_start : Sim.Units.time;
  phase_totals : (string * Sim.Units.time) list;
  cpu_time : Sim.Units.time;
  peak_rss : int;
  validated : (unit, string) result;
}

let phase_total m name =
  match List.assoc_opt name m.phase_totals with
  | Some t -> t
  | None -> Sim.Units.zero

type t = { name : string; run : Fctx.app -> metrics }

let speedup m ~over =
  let a = Int64.to_float (Sim.Units.to_ns m.e2e) in
  let b = Int64.to_float (Sim.Units.to_ns over.e2e) in
  if a <= 0.0 then infinity else b /. a

let check_validated m =
  match m.validated with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s produced a wrong answer: %s" m.platform e)
