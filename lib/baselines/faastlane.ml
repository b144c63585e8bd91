open Workloads
open Sim

let thread_start = Units.us 630
let process_start = Units.us 2_800

(* 16MB round trip at 2.6x AlloyStack's 951us => ~13.6 GB/s effective
   across cores; the 1us fixed term is the MPK bookkeeping (cheaper
   than AsBuffer's smart pointer, hence the 4KB crossover of Fig. 11). *)
let refer_bw = 13.6e9
let refer_fixed = Units.us 1

type transfer_mode = Refer | Ipc

type variant = {
  label : string;
  kata : bool;
  warm : bool;  (** Skip the sandbox boot (steady-state measurement). *)
  always_refer : bool;
  always_ipc : bool;
  ramfs : bool;
}

(* IPC across the forked subprocesses: the data is serialised, pushed
   through a 64KB pipe (one write/read syscall pair and two kernel
   copies per chunk), and deserialised on the far side.  The
   serialisation is what makes Faastlane-IPC so much slower than
   reference passing (Fig. 11). *)
let ipc_serialize_bw = 0.5e9

let ipc_side_cost len =
  let chunks = Hostos.Pipe.transfer_chunks len in
  Units.add
    (Units.time_for_bytes ~bytes_per_sec:ipc_serialize_bw len)
    (Units.add
       (Units.time_for_bytes ~bytes_per_sec:Alloystack_core.Cost.memcpy_bw len)
       (Units.scale (Hostos.Syscall.cost Hostos.Syscall.Write) (float_of_int chunks)))

let ipc_send_cost = ipc_side_cost
let ipc_recv_cost = ipc_side_cost

(* Forking the per-function subprocess for a parallel phase: fork +
   MPK re-setup + runtime re-init in the child. *)
let fork_cost = Units.ms 5

let refer_cost len =
  Units.add refer_fixed (Units.time_for_bytes ~bytes_per_sec:refer_bw len)

let make variant =
  let run (app : Fctx.app) =
    let vfs = if variant.ramfs then Fsim.Vfs.fresh_ramfs () else Fsim.Vfs.fresh_extfs () in
    List.iter (fun (path, data) -> vfs.Fsim.Vfs.write_file path data) app.Fctx.inputs;
    (* Per-hop transfer mode: IPC when either endpoint stage is
       parallel (the fork/subprocess phases of Faastlane). *)
    let widths = Array.of_list (List.map (fun (_, n, _) -> n) app.Fctx.stages) in
    let mode_after stage_idx =
      if variant.always_ipc then Ipc
      else if variant.always_refer then Refer
      else if
        stage_idx + 1 < Array.length widths
        && (widths.(stage_idx) > 1 || widths.(stage_idx + 1) > 1)
      then Ipc
      else Refer
    in
    let mode_before stage_idx = if stage_idx = 0 then Refer else mode_after (stage_idx - 1) in
    let store : (string, bytes) Hashtbl.t = Hashtbl.create 32 in
    let stage_parallel idx = idx < Array.length widths && widths.(idx) > 1 in
    let boot (info : Runner.instance_info) clock =
      if info.Runner.stage_index = 0 && info.Runner.instance = 0 then begin
        if variant.kata && not variant.warm then
          ignore (Vmm.Sandbox.boot Vmm.Container.kata_firecracker clock);
        Clock.advance clock process_start
      end
      else if
        (not variant.always_refer) && (not variant.always_ipc)
        && stage_parallel info.Runner.stage_index
      then
        (* The default configuration forks a subprocess per function of
           a parallel phase. *)
        Clock.advance clock fork_cost
      else Clock.advance clock thread_start
    in
    let make_fctx (info : Runner.instance_info) ~clock ~phase =
      let send ~slot data =
        (match mode_after info.Runner.stage_index with
        | Refer -> Clock.advance clock (refer_cost (Bytes.length data))
        | Ipc -> Clock.advance clock (ipc_send_cost (Bytes.length data)));
        Hashtbl.replace store slot (Bytes.copy data)
      in
      let recv ~slot =
        match Hashtbl.find_opt store slot with
        | None -> raise Not_found
        | Some data ->
            Hashtbl.remove store slot;
            (match mode_before info.Runner.stage_index with
            | Refer -> Clock.advance clock (refer_cost (Bytes.length data))
            | Ipc -> Clock.advance clock (ipc_recv_cost (Bytes.length data)));
            data
      in
      {
        Fctx.instance = info.Runner.instance;
        total = info.Runner.total;
        read_input = (fun path -> vfs.Fsim.Vfs.read_file ~clock path);
        write_output = (fun path data -> vfs.Fsim.Vfs.write_file ~clock path data);
        send;
        recv;
        println = (fun _ -> Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Write));
        compute = (fun t -> Clock.advance clock t);
        phase;
      }
    in
    let mib n = n * 1024 * 1024 in
    let instance_rss _info = mib 2 in
    let cpu_tax =
      if variant.kata then Vmm.Container.kata_firecracker.Vmm.Sandbox.cpu_tax else 0.0
    in
    let hooks = { Runner.boot; make_fctx; instance_rss; cpu_tax } in
    let base_rss =
      if variant.kata then Vmm.Container.kata_firecracker.Vmm.Sandbox.mem_overhead else 0
    in
    let result = Runner.run hooks app.Fctx.stages in
    let read_output path =
      match vfs.Fsim.Vfs.read_file path with
      | data -> Some data
      | exception Not_found -> None
    in
    {
      Platform.platform = variant.label;
      e2e = result.Runner.e2e;
      cold_start = result.Runner.cold_start;
      phase_totals = result.Runner.phase_totals;
      cpu_time = result.Runner.cpu_time;
      peak_rss = base_rss + result.Runner.peak_rss;
      validated = app.Fctx.validate ~read_output;
    }
  in
  { Platform.name = variant.label; run }

let default_ =
  make { label = "Faastlane"; kata = false; warm = false; always_refer = false; always_ipc = false; ramfs = false }

let refer =
  make { label = "Faastlane-refer"; kata = false; warm = false; always_refer = true; always_ipc = false; ramfs = false }

let refer_kata =
  make { label = "Faastlane-refer-kata"; kata = true; warm = false; always_refer = true; always_ipc = false; ramfs = false }

let ipc =
  make
    { label = "Faastlane-IPC"; kata = false; warm = false; always_refer = false; always_ipc = true; ramfs = false }

let refer_kata_warm_ramfs =
  make
    { label = "Faastlane-refer-kata (warm)"; kata = true; warm = true;
      always_refer = true; always_ipc = false; ramfs = true }
