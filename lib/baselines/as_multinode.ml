open Workloads
open Sim
open Alloystack_core

let split_stages stages ~parts =
  let n = List.length stages in
  if parts <= 0 then invalid_arg "As_multinode.split_stages: parts must be positive";
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

let make ~nodes () =
  let name = Printf.sprintf "AlloyStack-%dnode" nodes in
  let run ?(cores = 64) (app : Fctx.app) =
    let vfs = Fsim.Vfs.fresh_fat () in
    List.iter (fun (path, data) -> vfs.Fsim.Vfs.write_file path data) app.Fctx.inputs;
    (* Bytes shipped across WFD boundaries, keyed by slot.  Producers
       stash a copy of everything they publish; consumers that miss
       locally pull through the network. *)
    let bridge_store : (string, bytes) Hashtbl.t = Hashtbl.create 32 in
    let groups = split_stages app.Fctx.stages ~parts:nodes in
    let total_e2e = ref Units.zero in
    let cold_start = ref None in
    let peak_rss = ref 0 in
    let cpu_time = ref Units.zero in
    let phase_totals : (string, Units.time) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun group_stages ->
        let workflow =
          As_platform.to_workflow ~language:Workflow.Rust ~modules:app.Fctx.modules
            group_stages
        in
        let make_binding (_, _, kernel) =
          Visor.bind (fun (actx : Asstd.ctx) ~instance ~total ->
              let send ~slot data =
                Hashtbl.replace bridge_store slot (Bytes.copy data);
                ignore (Asbuffer.with_slot_raw actx ~slot data)
              in
              let recv ~slot =
                match Asbuffer.from_slot_raw actx ~slot with
                | data -> data
                | exception Errno.Error (Errno.Enoent, _) -> begin
                    match Hashtbl.find_opt bridge_store slot with
                    | Some data ->
                        (* Remote pull from the upstream WFD's node. *)
                        Clock.advance actx.Asstd.thread.Wfd.clock
                          (bridge_cost (Bytes.length data));
                        data
                    | None -> raise Not_found
                  end
              in
              kernel
                {
                  Fctx.instance;
                  total;
                  read_input = (fun path -> Asstd.read_whole_file actx path);
                  write_output = (fun path data -> Asstd.write_whole_file actx path data);
                  send;
                  recv;
                  println = (fun line -> Asstd.println actx line);
                  compute = (fun t -> Asstd.compute actx t);
                  phase = (fun name f -> Asstd.in_phase actx name f);
                })
        in
        let bindings =
          List.map (fun ((n, _, _) as stage) -> (n, make_binding stage)) group_stages
        in
        let config =
          { Visor.default_config with Visor.cores; vfs = Some vfs }
        in
        let report = Visor.run ~config ~workflow ~bindings () in
        total_e2e := Units.add !total_e2e report.Visor.e2e;
        (match !cold_start with
        | None -> cold_start := Some report.Visor.cold_start
        | Some _ -> ());
        peak_rss := Stdlib.max !peak_rss report.Visor.peak_rss;
        List.iter
          (fun (s : Visor.stage_report) ->
            List.iter
              (fun d -> cpu_time := Units.add !cpu_time d)
              s.Visor.instance_durations)
          report.Visor.stage_reports;
        List.iter
          (fun (name, t) ->
            let prev =
              match Hashtbl.find_opt phase_totals name with
              | Some v -> v
              | None -> Units.zero
            in
            Hashtbl.replace phase_totals name (Units.add prev t))
          report.Visor.phase_totals)
      groups;
    let read_output path =
      match vfs.Fsim.Vfs.read_file path with
      | data -> Some data
      | exception Not_found -> None
    in
    {
      Platform.platform = name;
      e2e = !total_e2e;
      cold_start = (match !cold_start with Some c -> c | None -> Units.zero);
      phase_totals =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) phase_totals [] |> List.sort compare;
      cpu_time = !cpu_time;
      peak_rss = !peak_rss;
      validated = app.Fctx.validate ~read_output;
    }
  in
  { Platform.name; run }
