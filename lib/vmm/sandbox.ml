open Sim

type stage = { label : string; cost : Units.time }

type profile = {
  name : string;
  stages : stage list;
  mem_overhead : int;
  cpu_tax : float;
}

let total p = List.fold_left (fun acc s -> Units.add acc s.cost) Units.zero p.stages

type boot_report = {
  profile_name : string;
  stage_times : (string * Units.time) list;
  total_time : Units.time;
}

let boot p clock =
  let stage_times =
    List.map
      (fun s ->
        Clock.advance clock s.cost;
        (s.label, s.cost))
      p.stages
  in
  { profile_name = p.name; stage_times; total_time = total p }
