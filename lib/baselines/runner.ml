open Workloads
open Sim

type instance_info = {
  stage_index : int;
  fn_name : string;
  instance : int;
  total : int;
}

type hooks = {
  boot : instance_info -> Clock.t -> unit;
  make_fctx :
    instance_info -> clock:Clock.t -> phase:(string -> (unit -> unit) -> unit) -> Fctx.t;
  instance_rss : instance_info -> int;
  cpu_tax : float;
}

type result = {
  e2e : Units.time;
  cold_start : Units.time;
  phase_totals : (string * Units.time) list;
  cpu_time : Units.time;
  peak_rss : int;
}

(* Every platform runs on the paper's 64-core testbed, the width the
   AlloyStack visor defaults to, and dispatches at its rate. *)
let cores = Alloystack_core.Visor.default_config.Alloystack_core.Visor.cores
let dispatch_latency = Alloystack_core.Cost.dispatch_latency

let run ?(trigger_overhead = Units.zero) hooks stages =
  let t0 = Units.zero in
  let stage_ready = ref trigger_overhead in
  let cold_start = ref None in
  let phase_totals : (string, Units.time) Hashtbl.t = Hashtbl.create 8 in
  let cpu_time = ref Units.zero in
  let peak_rss = ref 0 in
  let run_stage stage_index (fn_name, instances, kernel) =
    let dispatch = ref !stage_ready in
    let stage_rss = ref 0 in
    let durations =
      List.init instances (fun i ->
          let info = { stage_index; fn_name; instance = i; total = instances } in
          dispatch := Units.add !dispatch dispatch_latency;
          let start = !dispatch in
          let clock = Clock.create ~at:start () in
          hooks.boot info clock;
          (match !cold_start with
          | None -> cold_start := Some (Clock.now clock)
          | Some _ -> ());
          let phase name f =
            let p0 = Clock.now clock in
            let record () =
              let spent = Clock.elapsed_since clock p0 in
              let prev =
                match Hashtbl.find_opt phase_totals name with
                | Some t -> t
                | None -> Units.zero
              in
              Hashtbl.replace phase_totals name (Units.add prev spent)
            in
            match f () with
            | () -> record ()
            | exception e ->
                record ();
                raise e
          in
          let fctx = hooks.make_fctx info ~clock ~phase in
          kernel fctx;
          stage_rss := !stage_rss + hooks.instance_rss info;
          let raw = Clock.elapsed_since clock start in
          Units.scale raw (1.0 +. hooks.cpu_tax))
    in
    let placements =
      Hostos.Sched.schedule ~cores ~ready:!stage_ready ~dispatch_latency durations
    in
    List.iter (fun d -> cpu_time := Units.add !cpu_time d) durations;
    peak_rss := Stdlib.max !peak_rss !stage_rss;
    stage_ready := Hostos.Sched.makespan placements
  in
  List.iteri run_stage stages;
  {
    e2e = Units.sub !stage_ready t0;
    cold_start =
      (match !cold_start with Some c -> Units.sub c t0 | None -> Units.zero);
    phase_totals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) phase_totals [] |> List.sort compare;
    cpu_time = !cpu_time;
    peak_rss = !peak_rss;
  }
