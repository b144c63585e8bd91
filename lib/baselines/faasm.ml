open Workloads
open Sim

let faaslet_start = Units.us 480
let instantiate = Units.us 160
let state_sync = Units.us 700

(* Every chained invocation is dispatched through Faasm's scheduler
   (the control-plane cost the paper sees grow with FunctionChain
   length, 8.5). *)
let control_plane = Units.ms 11

(* Local-tier transfer: mremap avoids the copy but each page still faults in,
   then the consumer traverses the bytes. *)
let transfer_cost n =
  let pages = (n + 4095) / 4096 in
  Units.add
    (Units.scale Alloystack_core.Cost.page_fault_service (float_of_int pages))
    (Units.time_for_bytes ~bytes_per_sec:Alloystack_core.Cost.memcpy_bw n)

let cpython_init_faasm = Units.ms 2_350

let make ~label ~language =
  let runtime = Wasm.Runtime.wavm in
  let compute_factor =
    match language with
    | Alloystack_core.Workflow.Rust ->
        invalid_arg "Faasm does not support Rust (the paper omits it too)"
    | Alloystack_core.Workflow.C -> Wasm.Runtime.slowdown_vs_native runtime
    | Alloystack_core.Workflow.Python -> 22.0 *. Wasm.Runtime.slowdown_vs_native runtime
  in
  let run (app : Fctx.app) =
    let vfs = Fsim.Vfs.fresh_extfs () in
    List.iter (fun (path, data) -> vfs.Fsim.Vfs.write_file path data) app.Fctx.inputs;
    let store : (string, bytes) Hashtbl.t = Hashtbl.create 32 in
    let boot (info : Runner.instance_info) clock =
      if info.Runner.stage_index > 0 || info.Runner.instance > 0 then
        Clock.advance clock control_plane;
      Clock.advance clock faaslet_start;
      Clock.advance clock instantiate;
      if language = Alloystack_core.Workflow.Python then
        Clock.advance clock cpython_init_faasm
    in
    (* File access goes through Faasm's WASI filesystem layer: an
       extra copy into the sandbox plus the layer's own bookkeeping. *)
    let io_factor = 2.2 in
    let make_fctx (info : Runner.instance_info) ~clock ~phase =
      let send ~slot data =
        Clock.advance clock state_sync;
        Clock.advance clock (transfer_cost (Bytes.length data));
        Hashtbl.replace store slot (Bytes.copy data)
      in
      let recv ~slot =
        match Hashtbl.find_opt store slot with
        | None -> raise Not_found
        | Some data ->
            Hashtbl.remove store slot;
            Clock.advance clock state_sync;
            Clock.advance clock (transfer_cost (Bytes.length data));
            data
      in
      {
        Fctx.instance = info.Runner.instance;
        total = info.Runner.total;
        read_input =
          (fun path ->
            let before = Clock.now clock in
            let data = vfs.Fsim.Vfs.read_file ~clock path in
            Clock.advance clock
              (Units.scale (Clock.elapsed_since clock before) (io_factor -. 1.0));
            data);
        write_output =
          (fun path data ->
            let before = Clock.now clock in
            vfs.Fsim.Vfs.write_file ~clock path data;
            Clock.advance clock
              (Units.scale (Clock.elapsed_since clock before) (io_factor -. 1.0)));
        send;
        recv;
        println = (fun _ -> Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Write));
        compute = (fun t -> Clock.advance clock (Units.scale t compute_factor));
        phase;
      }
    in
    let instance_rss _ = 6 * 1024 * 1024 in
    let hooks = { Runner.boot; make_fctx; instance_rss; cpu_tax = 0.0 } in
    let result =
      Runner.run ~trigger_overhead:(Units.us 400) hooks app.Fctx.stages
    in
    let read_output path =
      match vfs.Fsim.Vfs.read_file path with
      | data -> Some data
      | exception Not_found -> None
    in
    {
      Platform.platform = label;
      e2e = result.Runner.e2e;
      cold_start = result.Runner.cold_start;
      phase_totals = result.Runner.phase_totals;
      cpu_time = result.Runner.cpu_time;
      peak_rss = result.Runner.peak_rss;
      validated = app.Fctx.validate ~read_output;
    }
  in
  { Platform.name = label; run }

let c = make ~label:"Faasm-C" ~language:Alloystack_core.Workflow.C

let python = make ~label:"Faasm-Py" ~language:Alloystack_core.Workflow.Python
