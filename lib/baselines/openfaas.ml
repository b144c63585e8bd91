open Workloads
open Sim

let gateway_overhead = Units.ms 12

(* Per-invocation watchdog hop inside each function container. *)
let watchdog_hop = Units.us 800

(* Invoking a (warm) function still crosses the gateway, the provider
   and the watchdog. *)
let per_invocation_path = Units.ms 9

let make ~label ~sandbox ~io_factor ?(warm = false) () =
  let run (app : Fctx.app) =
    (* Input/output files live on a host volume (ext4). *)
    let vfs = Fsim.Vfs.fresh_extfs () in
    List.iter (fun (path, data) -> vfs.Fsim.Vfs.write_file path data) app.Fctx.inputs;
    (* Intermediate data goes through Redis over the simulated
       network. *)
    let redis = Netsim.Redis.create ~link:Netsim.Link.datacenter () in
    let boot (_ : Runner.instance_info) clock =
      (* Every function instance cold-starts its own container; in the
         warm configuration the pod exists and only the invocation path
         is paid. *)
      if not warm then ignore (Vmm.Sandbox.boot sandbox clock)
      else Clock.advance clock per_invocation_path;
      Clock.advance clock watchdog_hop
    in
    let io clock base_cost =
      (* gVisor's ptrace path inflates filesystem work. *)
      Clock.advance clock (Units.scale base_cost (io_factor -. 1.0))
    in
    let make_fctx (info : Runner.instance_info) ~clock ~phase =
      let client = lazy (Netsim.Redis.connect redis clock) in
      let send ~slot data = Netsim.Redis.set (Lazy.force client) slot data in
      let recv ~slot =
        match Netsim.Redis.get (Lazy.force client) slot with
        | Some data ->
            ignore (Netsim.Redis.del (Lazy.force client) slot);
            data
        | None -> raise Not_found
      in
      let read_input path =
        let before = Clock.now clock in
        let data = vfs.Fsim.Vfs.read_file ~clock path in
        io clock (Clock.elapsed_since clock before);
        data
      in
      let write_output path data =
        let before = Clock.now clock in
        vfs.Fsim.Vfs.write_file ~clock path data;
        io clock (Clock.elapsed_since clock before)
      in
      ignore info;
      {
        Fctx.instance = info.Runner.instance;
        total = info.Runner.total;
        read_input;
        write_output;
        send;
        recv;
        println = (fun _ -> Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Write));
        compute = (fun t -> Clock.advance clock t);
        phase;
      }
    in
    let instance_rss _ = sandbox.Vmm.Sandbox.mem_overhead in
    let hooks =
      {
        Runner.boot;
        make_fctx;
        instance_rss;
        cpu_tax = sandbox.Vmm.Sandbox.cpu_tax;
      }
    in
    let result =
      Runner.run ~trigger_overhead:gateway_overhead hooks app.Fctx.stages
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

let openfaas = make ~label:"OpenFaaS" ~sandbox:Vmm.Container.runc ~io_factor:1.0 ()

let openfaas_gvisor =
  make ~label:"OpenFaaS-gVisor" ~sandbox:Vmm.Gvisor.profile ~io_factor:2.2 ()

let openfaas_warm =
  make ~label:"OpenFaaS (warm)" ~sandbox:Vmm.Container.runc ~io_factor:1.0 ~warm:true ()
