open Workloads
open Sim
open Alloystack_core

type fs_backend = Fat_image | Ram_fs

type options = {
  language : Workflow.language;
  features : Wfd.features;
  fs : fs_backend;
  wasm_runtime : Wasm.Runtime.profile option;
  nodes : int;
}

let default_options =
  {
    language = Workflow.Rust;
    features = Wfd.default_features;
    fs = Fat_image;
    wasm_runtime = None;
    nodes = 1;
  }

let to_workflow ~language ~modules stages =
  let nodes =
    List.map
      (fun (name, instances, _) ->
        { Workflow.node_id = name; language; instances; required_modules = modules })
      stages
  in
  let rec edges = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) -> (a, b) :: edges rest
    | [ _ ] | [] -> []
  in
  Workflow.create_exn ~name:"app" ~nodes ~edges:(edges stages)

let split_stages stages ~parts =
  let n = List.length stages in
  if parts <= 0 then invalid_arg "As_platform.split_stages: parts must be positive";
  let parts = Stdlib.min parts (Stdlib.max 1 n) in
  let arr = Array.of_list stages in
  List.init parts (fun p ->
      let lo = p * n / parts and hi = (p + 1) * n / parts in
      Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun g -> g <> [])

(* Serialisation at both ends plus the wire (the cross-node path has no
   shared address space to lean on). *)
let bridge_cost len =
  Units.add
    (Units.scale (Netsim.Redis.serialization_cost len) 2.0)
    (Units.add
       (Netsim.Link.wire_time Netsim.Link.datacenter len)
       (Netsim.Link.rtt Netsim.Link.datacenter))

let stage_inputs vfs inputs =
  List.iter (fun (path, data) -> vfs.Fsim.Vfs.write_file path data) inputs

(* Sum the per-phase totals of the groups' reports; phase names stay
   sorted, as in a single report. *)
let merge_phases reports =
  let add acc (name, t) =
    match List.assoc_opt name acc with
    | Some prev -> (name, Units.add prev t) :: List.remove_assoc name acc
    | None -> (name, t) :: acc
  in
  List.fold_left (fun acc (r : Visor.report) -> List.fold_left add acc r.Visor.phase_totals)
    [] reports
  |> List.sort compare

let make ?(options = default_options) () =
  let name =
    let base =
      match options.language with
      | Workflow.Rust -> "AlloyStack"
      | Workflow.C -> "AlloyStack-C"
      | Workflow.Python -> "AlloyStack-Py"
    in
    let base = if options.features.Wfd.ifi then base ^ "-IFI" else base in
    let base =
      match (options.features.Wfd.on_demand, options.features.Wfd.ref_passing) with
      | true, true -> if options.fs = Ram_fs then base ^ "-ramfs" else base
      | false, false -> base ^ "-base"
      | true, false -> base ^ "+ondemand"
      | false, true -> base ^ "+refpass"
    in
    if options.nodes > 1 then Printf.sprintf "%s-%dnode" base options.nodes else base
  in
  let run (app : Fctx.app) =
    let vfs =
      match options.fs with
      | Fat_image -> Fsim.Vfs.fresh_fat ()
      | Ram_fs -> Fsim.Vfs.fresh_ramfs ()
    in
    stage_inputs vfs app.Fctx.inputs;
    let groups =
      if options.nodes = 1 then [ app.Fctx.stages ]
      else split_stages app.Fctx.stages ~parts:options.nodes
    in
    (* Payloads that may cross a WFD boundary, by slot: the producing
       group and a copy of the bytes.  Only a multi-node split keeps
       them; within one WFD a payload moves by reference. *)
    let stash : (string, int * bytes) Hashtbl.t = Hashtbl.create 8 in
    let multi = List.length groups > 1 in
    let config =
      {
        Visor.default_config with
        Visor.features = options.features;
        vfs = Some vfs;
        wasm_runtime = options.wasm_runtime;
      }
    in
    let run_group group stages =
      let workflow =
        to_workflow ~language:options.language ~modules:app.Fctx.modules stages
      in
      let make_binding (_, _, kernel) =
        Visor.bind (fun (actx : Asstd.ctx) ~instance ~total ->
            let fctx =
              {
                Fctx.instance;
                total;
                read_input = (fun path -> Asstd.read_whole_file actx path);
                write_output = (fun path data -> Asstd.write_whole_file actx path data);
                send =
                  (fun ~slot data ->
                    if multi then Hashtbl.replace stash slot (group, Bytes.copy data);
                    ignore (Asbuffer.with_slot_raw actx ~slot data));
                recv =
                  (fun ~slot ->
                    match Asbuffer.from_slot_raw actx ~slot with
                    | data -> data
                    | exception Errno.Error (Errno.Enoent, _) -> (
                        match Hashtbl.find_opt stash slot with
                        | Some (producer, data) when producer < group ->
                            (* Remote pull from the upstream WFD's node. *)
                            Clock.advance actx.Asstd.thread.Wfd.clock
                              (bridge_cost (Bytes.length data));
                            data
                        | Some _ | None -> raise Not_found));
                println = (fun line -> Asstd.println actx line);
                compute = (fun t -> Asstd.compute actx t);
                phase = (fun name f -> Asstd.in_phase actx name f);
              }
            in
            kernel fctx)
      in
      let bindings = List.map (fun ((n, _, _) as stage) -> (n, make_binding stage)) stages in
      Visor.run ~config ~workflow ~bindings ()
    in
    let reports = List.mapi run_group groups in
    let read_output path =
      match vfs.Fsim.Vfs.read_file path with
      | data -> Some data
      | exception Not_found -> None
    in
    let sum f = List.fold_left (fun acc r -> Units.add acc (f r)) Units.zero reports in
    let cpu_time =
      sum (fun (r : Visor.report) ->
          List.fold_left
            (fun acc (s : Visor.stage_report) ->
              List.fold_left Units.add acc s.Visor.instance_durations)
            Units.zero r.Visor.stage_reports)
    in
    {
      Platform.platform = name;
      e2e = sum (fun r -> r.Visor.e2e);
      cold_start = (match reports with r :: _ -> r.Visor.cold_start | [] -> Units.zero);
      phase_totals = merge_phases reports;
      cpu_time;
      peak_rss = List.fold_left (fun acc r -> Stdlib.max acc r.Visor.peak_rss) 0 reports;
      validated = app.Fctx.validate ~read_output;
    }
  in
  { Platform.name; run }

let alloystack = make ()

let alloystack_ifi =
  make
    ~options:
      { default_options with features = { Wfd.default_features with Wfd.ifi = true } }
    ()

let alloystack_c = make ~options:{ default_options with language = Workflow.C } ()

let alloystack_py = make ~options:{ default_options with language = Workflow.Python } ()

let alloystack_ramfs = make ~options:{ default_options with fs = Ram_fs } ()

let ablation ~on_demand ~ref_passing =
  make
    ~options:
      {
        default_options with
        features = { Wfd.on_demand; ref_passing; ifi = false };
      }
    ()
