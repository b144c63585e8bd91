(* Benchmark harness: regenerates every table and figure of the
   AlloyStack paper's evaluation (see DESIGN.md experiment index).

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe fig11 fig12     -- a subset
     dune exec bench/main.exe --quick         -- reduced data sizes
     dune exec bench/main.exe --domains 4     -- host domain pool width

   Every figure is virtual time.  Host cost (us and allocated words per
   simulated request) is measured by perfbench/, not here. *)

open Sim
open Baselines
open Workloads

let mib n = n * 1024 * 1024
let kib n = n * 1024

let quick = ref false

(* --sweep: extend the serving experiment with a qps sweep (latency vs
   offered load, saturation knee) and streamed scale legs (10^5 with a
   sketch-vs-exact percentile check, 10^6 fold-only) run through the
   streaming server with sampled observability. *)
let sweep_flag = ref false

(* --soak: extend the serving experiment with a virtual-hour soak at a
   sustainable qps below the saturation knee: periodic snapshot lines
   (completed, in-flight, live words, sketch percentiles) and a
   flat-memory assertion. *)
let soak_flag = ref false

(* --soak-seconds N: virtual duration of the soak (defaults to an hour,
   two minutes in --quick).  CI's smoke leg shortens it. *)
let soak_seconds_flag = ref 0

(* --deep-requests N: request count for the fold-only deep leg
   (default 10^6; 50k in --quick).  CI smokes the 10^7 configuration at
   10^5 with the peak-live-words cap still asserted; a full 10^7 run is
   the overnight variant. *)
let deep_requests_flag = ref 0

(* --domains N: host domain pool width for the serving experiment.
   0 = auto (the machine's recommended domain count).  Virtual results
   are bit-identical whatever this is set to — the bench asserts that
   on every run. *)
let domains_flag = ref 0

let bench_domains () =
  if !domains_flag > 0 then !domains_flag else Par.auto_domains ()

let scale n = if !quick then Stdlib.max 4096 (n / 16) else n

let pp_t = Units.to_string

let validated (m : Platform.metrics) =
  Platform.check_validated m;
  m

let run_platform (p : Platform.t) app = validated (p.Platform.run app)

(* The observability collectors are process-global: start every
   experiment from a clean slate so exported spans and metric
   snapshots cover that experiment alone. *)
let reset_observability () =
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Table 1: kernel modules required per serverless function.           *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: kernel modules for serverless functions"
      ~columns:[ "Function"; "Required kernel components"; "#" ]
  in
  List.iter
    (fun (e : Image_meta.entry) ->
      Table.add_row t
        [
          e.Image_meta.fn_name;
          String.concat ", " e.Image_meta.components;
          string_of_int (List.length e.Image_meta.components);
        ])
    Image_meta.table;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 2: startup latency under progressively deeper trimming.      *)

let fig2 () =
  let t =
    Table.create ~title:"Figure 2: sandbox startup latency (trimming)"
      ~columns:[ "System"; "Boot"; "Dominant stages" ]
  in
  List.iter
    (fun profile ->
      let clock = Clock.create () in
      let report = Vmm.Sandbox.boot profile clock in
      let top =
        List.sort (fun (_, a) (_, b) -> Units.compare b a) report.Vmm.Sandbox.stage_times
        |> fun l -> List.filteri (fun i _ -> i < 2) l
      in
      let stages =
        String.concat ", "
          (List.map (fun (label, time) -> Printf.sprintf "%s %s" label (pp_t time)) top)
      in
      Table.add_row t [ profile.Vmm.Sandbox.name; pp_t report.Vmm.Sandbox.total_time; stages ])
    [
      Vmm.Microvm.qemu_full;
      Vmm.Microvm.trimmed;
      Vmm.Unikraft.profile;
      Vmm.Virtines.profile;
    ];
  Table.print t;
  print_endline
    "paper: QEMU 1817ms -> MicroVM ~1186ms -> Unikernel 137ms -> Virtines 23ms\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: communication primitives.                                 *)

let fig3 () =
  let sizes = [ kib 4; kib 64; mib 1; mib 16; mib 64 ] in
  let t =
    Table.create ~title:"Figure 3: data transfer primitives (latency per transfer)"
      ~columns:
        ("Size" :: [ "Inter-VM TCP"; "Inter-proc TCP"; "Shared memory"; "Function call" ])
  in
  let inter_vm_tcp size =
    let payload = Bytes.make size 'x' in
    let c = Clock.create () and s = Clock.create () in
    let conn =
      Netsim.Tcp.connect ~client:c ~server:s ~link:Netsim.Link.inter_vm
        ~client_profile:Netsim.Tcp.guest_linux ~server_profile:Netsim.Tcp.guest_linux ()
    in
    Netsim.Tcp.send conn ~from_client:true payload;
    Netsim.Tcp.discard conn ~at_client:false size;
    Clock.now s
  in
  let inter_proc_tcp size =
    let payload = Bytes.make size 'x' in
    let c = Clock.create () and s = Clock.create () in
    let conn =
      Netsim.Tcp.connect ~client:c ~server:s ~link:Netsim.Link.loopback
        ~client_profile:Netsim.Tcp.linux ~server_profile:Netsim.Tcp.linux ()
    in
    Netsim.Tcp.send conn ~from_client:true payload;
    Netsim.Tcp.discard conn ~at_client:false size;
    Clock.now s
  in
  let shared_memory size =
    (* mmap-ed ramfs file: writer fills, one-byte pipe notification,
       reader traverses the mapping (paying its page faults). *)
    let clock = Clock.create () in
    Clock.advance clock (Units.time_for_bytes ~bytes_per_sec:Alloystack_core.Cost.memcpy_bw size);
    Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Write);
    Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Read);
    let pages = (size + 4095) / 4096 in
    Clock.advance clock (Units.scale Alloystack_core.Cost.page_fault_service (float_of_int pages));
    Clock.advance clock (Units.time_for_bytes ~bytes_per_sec:Alloystack_core.Cost.memcpy_bw size);
    Clock.now clock
  in
  let function_call size =
    (* Threads in one address space: plain loads/stores. *)
    let clock = Clock.create () in
    Clock.advance clock
      (Units.time_for_bytes ~bytes_per_sec:Alloystack_core.Cost.buffer_copy_bw_rust (2 * size));
    Clock.now clock
  in
  List.iter
    (fun size ->
      Table.add_row t
        [
          Units.bytes_to_string size;
          pp_t (inter_vm_tcp size);
          pp_t (inter_proc_tcp size);
          pp_t (shared_memory size);
          pp_t (function_call size);
        ])
    sizes;
  Table.print t;
  print_endline "paper: function call beats the others by 1-2 orders of magnitude\n"

(* ------------------------------------------------------------------ *)
(* Table 4: filesystem and TCP stack throughput.                       *)

let table4 () =
  let t =
    Table.create ~title:"Table 4: as-libos file system and network stack"
      ~columns:[ "Module"; "Read / RX"; "Write / TX"; "paper" ]
  in
  let file_bw fs_write fs_read =
    let size = scale (mib 64) in
    let data = Bytes.make size 'f' in
    let wc = Clock.create () in
    fs_write wc data;
    let rc = Clock.create () in
    fs_read rc;
    let bw c = float_of_int size /. Units.to_sec (Clock.now c) /. 1e6 in
    (bw rc, bw wc)
  in
  let fat = Fsim.Fat.format (Fsim.Blockdev.create ~sectors:(mib 256 / 512)) in
  let fat_r, fat_w =
    file_bw
      (fun c data -> Fsim.Fat.write_file fat ~clock:c "/bench" data)
      (fun c -> ignore (Fsim.Fat.read_file fat ~clock:c "/bench"))
  in
  Table.add_row t
    [ "rust-fatfs (MB/s)"; Printf.sprintf "%.0f" fat_r; Printf.sprintf "%.0f" fat_w; "362 / 1562" ];
  let ext = Fsim.Extfs.format (Fsim.Blockdev.create ~sectors:(mib 256 / 512)) in
  let ext_r, ext_w =
    file_bw
      (fun c data -> Fsim.Extfs.write_file ext ~clock:c "/bench" data)
      (fun c -> ignore (Fsim.Extfs.read_file ext ~clock:c "/bench"))
  in
  Table.add_row t
    [ "Linux ext4 (MB/s)"; Printf.sprintf "%.0f" ext_r; Printf.sprintf "%.0f" ext_w; "1351 / 1282" ];
  Table.add_separator t;
  let gbit b = b *. 8.0 /. 1e9 in
  let smol_rx =
    gbit
      (Netsim.Tcp.throughput_estimate Netsim.Tcp.linux ~link:Netsim.Link.loopback
         ~rx:Netsim.Tcp.smoltcp)
  in
  let smol_tx =
    gbit
      (Netsim.Tcp.throughput_estimate Netsim.Tcp.smoltcp ~link:Netsim.Link.loopback
         ~rx:Netsim.Tcp.linux)
  in
  Table.add_row t
    [ "smoltcp (Gbit/s)"; Printf.sprintf "%.3f" smol_rx; Printf.sprintf "%.3f" smol_tx; "1.751 / 5.366" ];
  let lin =
    gbit
      (Netsim.Tcp.throughput_estimate Netsim.Tcp.linux ~link:Netsim.Link.loopback
         ~rx:Netsim.Tcp.linux)
  in
  Table.add_row t
    [ "Linux (Gbit/s)"; Printf.sprintf "%.2f" lin; Printf.sprintf "%.2f" lin; "27.76 / 28.56" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 10: cold start latency.                                      *)

let fig10 () =
  let t =
    Table.create ~title:"Figure 10: cold start latency (no-ops)"
      ~columns:[ "System"; "Cold start"; "paper" ]
  in
  let paper =
    [
      ("AS", "1.3ms");
      ("AS-load-all", "89.4ms");
      ("Faastlane-T", "slightly < AS");
      ("Wasmer-T", "7.6ms");
      ("Wasmer", "342ms");
      ("Virtines", "22.8ms");
      ("Unikraft", "~137ms");
      ("gVisor", "slow (ptrace + Go)");
      ("Kata", "MicroVM boot");
      ("Faasm", "faaslet spawn");
      ("AS-Py", "CPython init");
      ("Faasm-Py", "slowest");
    ]
  in
  List.iter
    (fun (e : Singlefn.entry) ->
      let note = match List.assoc_opt e.Singlefn.label paper with Some p -> p | None -> "" in
      Table.add_row t [ e.Singlefn.label; pp_t e.Singlefn.cold_start; note ])
    (Singlefn.figure10 ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 11: intermediate data transfer latency.                      *)

let fig11 () =
  let sizes = [ kib 4; kib 64; mib 1; mib 16 ] in
  let platforms =
    [
      As_platform.alloystack;
      As_platform.alloystack_ifi;
      As_platform.alloystack_c;
      As_platform.alloystack_py;
      Faastlane.refer;
      Faastlane.ipc;
      Openfaas.openfaas;
      Faasm.c;
    ]
  in
  let t =
    Table.create ~title:"Figure 11: intermediate data transfer latency (pipe)"
      ~columns:("Platform" :: List.map Units.bytes_to_string sizes)
  in
  List.iter
    (fun (p : Platform.t) ->
      let cells =
        List.map
          (fun size ->
            let m = run_platform p (Pipe_app.app ~seed:171 ~size) in
            pp_t (Platform.phase_total m Fctx.phase_transfer))
          sizes
      in
      Table.add_row t (p.Platform.name :: cells))
    platforms;
  Table.print t;
  print_endline
    "paper @16MB: AS 951us, AS-C 697us, AS-Py 9631us; AS-IFI +0.8..33.7%;\n\
     Faastlane ~2.6x AS (and ~4us faster at 4KB); OpenFaaS highest\n"

(* ------------------------------------------------------------------ *)
(* Figures 12/13: end-to-end latency grids.                            *)

(* Renders a platforms x configs grid of e2e latency; each cell also
   shows the ratio relative to the first platform in the list. *)
let e2e_grid ~title ~configs platforms =
  let t = Table.create ~title ~columns:("Platform" :: List.map fst configs) in
  (* Workload apps are stateless across runs: build each once and share
     it between platforms (input generation is expensive at 300MB). *)
  let apps = List.map (fun (_, make) -> make ()) configs in
  let rows =
    List.map
      (fun (p : Platform.t) ->
        ( p.Platform.name,
          List.map (fun app -> (run_platform p app).Platform.e2e) apps ))
      platforms
  in
  let reference = match rows with (_, cells) :: _ -> cells | [] -> [] in
  List.iter
    (fun (name, cells) ->
      let rendered =
        List.map2
          (fun cell ref_cell ->
            let ratio = Units.to_us cell /. Float.max 1e-9 (Units.to_us ref_cell) in
            Printf.sprintf "%s (%.2fx)" (pp_t cell) ratio)
          cells reference
      in
      Table.add_row t (name :: rendered))
    rows;
  Table.print t

let wc_configs () =
  [
    ("10MB x1", fun () -> Wordcount.app ~seed:121 ~size:(scale (mib 10)) ~instances:1);
    ("100MB x3", fun () -> Wordcount.app ~seed:122 ~size:(scale (mib 100)) ~instances:3);
    ("300MB x5", fun () -> Wordcount.app ~seed:123 ~size:(scale (mib 300)) ~instances:5);
  ]

let ps_configs () =
  [
    ("1MB x1", fun () -> Parallel_sorting.app ~seed:124 ~size:(scale (mib 1)) ~instances:1);
    ("25MB x3", fun () -> Parallel_sorting.app ~seed:125 ~size:(scale (mib 25)) ~instances:3);
    ("50MB x5", fun () -> Parallel_sorting.app ~seed:126 ~size:(scale (mib 50)) ~instances:5);
  ]

let fc_configs () =
  [
    ("1MB len5", fun () -> Function_chain.app ~seed:127 ~payload:(scale (mib 1)) ~length:5);
    ("64MB len10", fun () -> Function_chain.app ~seed:128 ~payload:(scale (mib 64)) ~length:10);
    ("256MB len15", fun () -> Function_chain.app ~seed:129 ~payload:(scale (mib 256)) ~length:15);
  ]

let rust_platforms =
  [
    As_platform.alloystack;
    Faastlane.default_;
    Faastlane.refer;
    Faastlane.refer_kata;
    Openfaas.openfaas;
    Openfaas.openfaas_gvisor;
    Openfaas.openfaas_warm;
  ]

let fig12 () =
  e2e_grid ~title:"Figure 12(a-c): WordCount, Rust (cell = e2e, (nx) vs AlloyStack)"
    ~configs:(wc_configs ()) rust_platforms;
  e2e_grid ~title:"Figure 12(d-f): ParallelSorting, Rust" ~configs:(ps_configs ())
    rust_platforms;
  e2e_grid ~title:"Figure 12(g-i): FunctionChain, Rust" ~configs:(fc_configs ())
    rust_platforms;
  print_endline
    "paper: AS 2.1-3.29x vs Faastlane (PS multi-instance), 6.5-29.3x vs OpenFaaS(+gVisor);\n\
     Faastlane slightly faster on WordCount (rust-fatfs reads); kata up to 38.7x slower\n"

let fig13 () =
  let c_platforms = [ As_platform.alloystack_c; Faasm.c ] in
  let py_platforms = [ As_platform.alloystack_py; Faasm.python ] in
  e2e_grid ~title:"Figure 13: WordCount, C" ~configs:(wc_configs ()) c_platforms;
  e2e_grid ~title:"Figure 13: ParallelSorting, C" ~configs:(ps_configs ()) c_platforms;
  e2e_grid ~title:"Figure 13: FunctionChain, C" ~configs:(fc_configs ()) c_platforms;
  e2e_grid ~title:"Figure 13: WordCount, Python" ~configs:(wc_configs ()) py_platforms;
  e2e_grid ~title:"Figure 13: ParallelSorting, Python" ~configs:(ps_configs ()) py_platforms;
  e2e_grid ~title:"Figure 13: FunctionChain, Python" ~configs:(fc_configs ()) py_platforms;
  print_endline
    "paper: AS-C 1.02-2.77x (WC), 3.01-12.41x (FC) faster than Faasm; PS slightly\n\
     slower (Wasmtime 30% behind WAVM); AS-Py up to 78.4x on FunctionChain\n"

(* ------------------------------------------------------------------ *)
(* Figure 14: ablation of on-demand loading and reference passing.     *)

let fig14 () =
  let apps =
    [
      ("WC 10MB x5", fun () -> Wordcount.app ~seed:141 ~size:(scale (mib 10)) ~instances:5);
      ("PS 1MB x5", fun () -> Parallel_sorting.app ~seed:142 ~size:(scale (mib 1)) ~instances:5);
      ("FC 1MB len15", fun () -> Function_chain.app ~seed:143 ~payload:(scale (mib 1)) ~length:15);
    ]
  in
  let variants =
    [
      ("base", As_platform.ablation ~on_demand:false ~ref_passing:false);
      ("+on-demand", As_platform.ablation ~on_demand:true ~ref_passing:false);
      ("+ref-passing", As_platform.ablation ~on_demand:false ~ref_passing:true);
      ("+both", As_platform.ablation ~on_demand:true ~ref_passing:true);
    ]
  in
  let t =
    Table.create ~title:"Figure 14: contribution of each technique (e2e, -% vs base)"
      ~columns:("Variant" :: List.map fst apps)
  in
  let rows =
    List.map
      (fun (label, p) ->
        (label, List.map (fun (_, app) -> (run_platform p (app ())).Platform.e2e) apps))
      variants
  in
  let base = match rows with (_, cells) :: _ -> cells | [] -> [] in
  List.iter
    (fun (label, cells) ->
      let rendered =
        List.map2
          (fun c b ->
            Printf.sprintf "%s (-%.0f%%)" (pp_t c)
              (100.0 *. (1.0 -. (Units.to_us c /. Float.max 1e-9 (Units.to_us b)))))
          cells base
      in
      Table.add_row t (label :: rendered))
    rows;
  Table.print t;
  print_endline "paper: on-demand loading -40.2..48.0%, reference passing -34.7..51.0%\n"

(* ------------------------------------------------------------------ *)
(* Figure 15: end-to-end latency breakdown.                            *)

let fig15 () =
  let apps =
    [
      ("WordCount 100MB x3", fun () -> Wordcount.app ~seed:151 ~size:(scale (mib 100)) ~instances:3);
      ("ParallelSorting 25MB x3", fun () -> Parallel_sorting.app ~seed:152 ~size:(scale (mib 25)) ~instances:3);
      ("FunctionChain 64MB len10", fun () -> Function_chain.app ~seed:153 ~payload:(scale (mib 64)) ~length:10);
    ]
  in
  let platforms = [ As_platform.alloystack; Faastlane.refer; Faasm.c ] in
  List.iter
    (fun (app_label, app) ->
      let t =
        Table.create
          ~title:(Printf.sprintf "Figure 15: breakdown - %s" app_label)
          ~columns:[ "Platform"; "read input"; "compute"; "transfer"; "e2e" ]
      in
      List.iter
        (fun (p : Platform.t) ->
          let m = run_platform p (app ()) in
          Table.add_row t
            [
              p.Platform.name;
              pp_t (Platform.phase_total m Fctx.phase_read);
              pp_t (Platform.phase_total m Fctx.phase_compute);
              pp_t (Platform.phase_total m Fctx.phase_transfer);
              pp_t m.Platform.e2e;
            ])
        platforms;
      Table.print t)
    apps;
  print_endline
    "paper: AS reads input 6.9-8.1x slower than Faastlane (rust-fatfs);\n\
     AS compute ~1.4x slower than Faasm on WASM workloads (Wasmtime vs WAVM)\n"

(* ------------------------------------------------------------------ *)
(* Figure 16: ramfs (removing the filesystem difference).              *)

let fig16 () =
  let t =
    Table.create ~title:"Figure 16: ParallelSorting 25MB on ramfs (e2e)"
      ~columns:[ "Platform"; "x1"; "x3"; "x5" ]
  in
  List.iter
    (fun (p : Platform.t) ->
      let cells =
        List.map
          (fun instances ->
            let app = Parallel_sorting.app ~seed:161 ~size:(scale (mib 25)) ~instances in
            pp_t (run_platform p app).Platform.e2e)
          [ 1; 3; 5 ]
      in
      Table.add_row t (p.Platform.name :: cells))
    [ As_platform.alloystack_ramfs; Faastlane.refer_kata_warm_ramfs ];
  Table.print t;
  print_endline
    "paper: with fs differences removed AlloyStack still slightly wins\n\
     (hardware virtualisation taxes the MicroVM's computation)\n"

(* ------------------------------------------------------------------ *)
(* Figure 17: tail latency under load; CPU/memory usage.               *)

let fig17 () =
  let app () = Parallel_sorting.app ~seed:171 ~size:(scale (mib 25)) ~instances:3 in
  let as_m = run_platform As_platform.alloystack (app ()) in
  let kata_m = run_platform Faastlane.refer_kata (app ()) in
  let qps_list = [ 20.0; 40.0; 80.0; 120.0; 160.0; 200.0 ] in
  let t =
    Table.create ~title:"Figure 17a: P99 latency vs QPS (ParallelSorting 25MB x3)"
      ~columns:("Platform" :: List.map (fun q -> Printf.sprintf "%.0fqps" q) qps_list)
  in
  let row label service contention =
    let spec = { Loadgen.cores = 96; width = 3; service; contention } in
    let cells =
      List.map
        (fun qps ->
          pp_t
            (Loadgen.run spec ~qps ~requests:(if !quick then 150 else 600)).Loadgen.p99)
        qps_list
    in
    Table.add_row t (label :: cells)
  in
  row "AlloyStack" as_m.Platform.e2e 0.001;
  row "Faastlane-refer-kata" kata_m.Platform.e2e 0.02;
  Table.print t;
  print_endline
    "paper: kata P99 rises steeply with QPS (rootfs/cgroup contention under\n\
     concurrency); AlloyStack stays flat until CPU saturation; up to 7.4x lower P99\n";
  let app5 () = Parallel_sorting.app ~seed:172 ~size:(scale (mib 25)) ~instances:5 in
  let as5 = run_platform As_platform.alloystack (app5 ()) in
  let kata5 = run_platform Faastlane.refer_kata (app5 ()) in
  let t =
    Table.create ~title:"Figure 17b: CPU / memory per workflow instance"
      ~columns:[ "Platform"; "CPU time"; "Peak RSS"; "vs AlloyStack" ]
  in
  Table.add_row t
    [
      "AlloyStack";
      pp_t as5.Platform.cpu_time;
      Units.bytes_to_string as5.Platform.peak_rss;
      "1.00x / 1.00x";
    ];
  Table.add_row t
    [
      "Faastlane-refer-kata";
      pp_t kata5.Platform.cpu_time;
      Units.bytes_to_string kata5.Platform.peak_rss;
      Printf.sprintf "%.2fx / %.2fx"
        (Units.to_us kata5.Platform.cpu_time /. Float.max 1e-9 (Units.to_us as5.Platform.cpu_time))
        (float_of_int kata5.Platform.peak_rss /. Float.max 1.0 (float_of_int as5.Platform.peak_rss));
    ];
  Table.print t;
  print_endline "paper: AlloyStack reduces CPU by ~2.4x and memory by ~3.2x\n"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures: the 9 mechanisms and design
   ablations DESIGN.md calls out.                                      *)

let ext () =
  (* Multi-node WFD split (9): the price of leaving the shared address
     space. *)
  let app = Function_chain.app ~seed:191 ~payload:(scale (mib 16)) ~length:8 in
  let t =
    Table.create ~title:"Extension: multi-node WFD split (FunctionChain 16MB len8)"
      ~columns:[ "Deployment"; "e2e"; "vs 1 node" ]
  in
  let base = ref Units.zero in
  List.iter
    (fun nodes ->
      let m =
        run_platform
          (As_platform.make ~options:{ As_platform.default_options with nodes } ())
          app
      in
      if nodes = 1 then base := m.Platform.e2e;
      Table.add_row t
        [
          Printf.sprintf "%d node(s)" nodes;
          pp_t m.Platform.e2e;
          Printf.sprintf "%.2fx"
            (Units.to_us m.Platform.e2e /. Float.max 1e-9 (Units.to_us !base));
        ])
    [ 1; 2; 4 ];
  Table.print t;
  print_endline
    "9: cross-WFD hops pay serialisation + the wire; within a WFD they are free
";
  (* Elasticity: burst handling vs node capacity. *)
  let open Alloystack_core in
  let wf =
    Workflow.create_exn ~name:"burst"
      ~nodes:
        [
          { Workflow.node_id = "f"; language = Workflow.Rust; instances = 4;
            required_modules = [ "mm" ] };
        ]
      ~edges:[]
  in
  let kernel (actx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute actx (Units.ms 25) in
  let t =
    Table.create ~title:"Extension: burst elasticity (width-4 workflow, 25ms compute)"
      ~columns:[ "Cluster"; "Burst"; "P99"; "queued" ]
  in
  List.iter
    (fun (label, nodes, count) ->
      let g = Gateway.create ~nodes () in
      Gateway.register g ~endpoint:"b" ~workflow:wf ~bindings:[ ("f", Visor.bind kernel) ] ();
      let r = Gateway.invoke_burst g ~endpoint:"b" ~count in
      Table.add_row t
        [ label; string_of_int count; pp_t r.Gateway.p99; string_of_int r.Gateway.queued ])
    [
      ("1 node x 16 cores", [ { Gateway.node_name = "n0"; cores = 16 } ], 12);
      ( "2 nodes x 16 cores",
        [ { Gateway.node_name = "n0"; cores = 16 }; { Gateway.node_name = "n1"; cores = 16 } ],
        12 );
      ("1 node x 64 cores", [ { Gateway.node_name = "n0"; cores = 64 } ], 12);
    ];
  Table.print t;
  (* Trampoline cost sensitivity: how much do MPK switches matter? *)
  let t =
    Table.create ~title:"Extension: syscall-path cost per as-std call"
      ~columns:[ "Component"; "cost" ]
  in
  Table.add_row t [ "trampoline switch (one way)"; pp_t Cost.trampoline_switch ];
  Table.add_row t [ "wrpkru"; pp_t Cost.wrpkru ];
  Table.add_row t [ "slot-map op (mm)"; pp_t Cost.slot_map_op ];
  Table.add_row t [ "smart pointer (AsBuffer)"; pp_t Cost.smart_pointer_overhead ];
  Table.add_row t [ "dlmopen namespace (slow path)"; pp_t Cost.dlmopen_namespace ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Chaos: seeded fault injection over a producer/consumer workflow.
   Reports completion rate and retry cost under the §3.1 failure model,
   and demonstrates that identical seeds replay identical runs.        *)

let chaos () =
  let open Alloystack_core in
  let node id =
    { Workflow.node_id = id; language = Workflow.Rust; instances = 1; required_modules = [] }
  in
  let wf =
    Workflow.create_exn ~name:"chaos" ~nodes:[ node "p"; node "c" ] ~edges:[ ("p", "c") ]
  in
  let produce (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/chaos" (Bytes.make (kib 64) 'p');
    ignore (Asbuffer.with_slot_raw ctx ~slot:"s" (Bytes.make (kib 16) 'b'))
  in
  let consume (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asstd.read_whole_file ctx "/chaos");
    ignore (Asbuffer.from_slot_raw ctx ~slot:"s")
  in
  let bindings = [ ("p", Visor.bind produce); ("c", Visor.bind consume) ] in
  let run_one seed =
    let plan = Fault.create ~seed () in
    Fault.inject plan ~site:Fault.site_fn_crash (Fault.Probability 0.12);
    Fault.inject plan ~site:Fault.site_fn_hang (Fault.Probability 0.04);
    Fault.inject plan ~site:Fault.site_mem_alloc (Fault.Probability 0.03);
    Fault.inject plan ~site:Fault.site_vfs_read (Fault.Probability 0.03);
    let config =
      {
        Visor.default_config with
        Visor.fault = Some plan;
        retry = Visor.Retry_function 3;
        timeout = Some (Units.ms 80);
        backoff = Visor.Exponential { base = Units.ms 2; factor = 2.0; limit = Units.ms 20 };
      }
    in
    match Visor.run ~config ~workflow:wf ~bindings () with
    | r -> (true, r.Visor.retries, Units.to_us r.Visor.e2e, Fault.schedule plan)
    | exception Visor.Function_failed _ -> (false, 0, 0.0, Fault.schedule plan)
  in
  let runs = if !quick then 12 else 40 in
  let batch () = List.init runs (fun i -> run_one (1000 + i)) in
  let a = batch () in
  let b = batch () in
  let completed = List.filter (fun (ok, _, _, _) -> ok) a in
  let retries = List.fold_left (fun acc (_, r, _, _) -> acc + r) 0 a in
  let faults =
    List.fold_left
      (fun acc (_, _, _, sched) -> List.fold_left (fun acc (_, n) -> acc + n) acc sched)
      0 a
  in
  let e2e = Stats.create () in
  List.iter (fun (_, _, us, _) -> Stats.add e2e us) completed;
  let t =
    Table.create
      ~title:(Printf.sprintf "Chaos: %d seeded runs (crash 12%%, hang 4%%, alloc/io 3%%)" runs)
      ~columns:[ "Metric"; "Value" ]
  in
  Table.add_row t
    [
      "completion rate";
      Printf.sprintf "%d/%d (%.0f%%)" (List.length completed) runs
        (100.0 *. float_of_int (List.length completed) /. float_of_int runs);
    ];
  Table.add_row t [ "faults injected"; string_of_int faults ];
  Table.add_row t [ "function restarts"; string_of_int retries ];
  if not (Stats.is_empty e2e) then begin
    Table.add_row t [ "mean e2e (completed)"; pp_t (Stats.mean_time e2e) ];
    Table.add_row t [ "p99 e2e (completed)"; pp_t (Stats.percentile_time e2e 99.0) ]
  end;
  Table.add_row t [ "same-seed batch replays"; if a = b then "yes" else "NO (bug)" ];
  Table.print t;
  print_endline
    "3.1: crashes are contained by MPK isolation; the visor recovers the heap\n\
     unit and restarts the function, so most runs still complete\n"

(* ------------------------------------------------------------------ *)
(* Serving: the multi-tenant warm-pool server under seeded open-loop
   load.  Two identically seeded runs are bit-identical (the CI smoke
   job diffs them); emits BENCH_serving.json next to the table.        *)

(* The deterministic artifacts of one span-traced base leg, every one
   byte-compared across domain counts. *)
type serving_leg = {
  lg_summary : Alloystack_core.Visor.Server.summary;
  lg_fingerprint : string;
  lg_breakdown : Alloystack_core.Jsonlite.t;
  lg_trace : string;
  lg_metrics : string;
  lg_prom : string;
  lg_csv : string;
  lg_alerts : string;
  lg_slo : Alloystack_core.Jsonlite.t;
  lg_tails : Alloystack_core.Jsonlite.t;
  lg_tails_render : string;
}

let serving () =
  let open Alloystack_core in
  let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
    { Workflow.node_id = id; language; instances; required_modules = modules }
  in
  (* Small admitted images so the content-hash admission cache has real
     work: one scan per distinct image, then cache hits.  The admission
     cache keys on instruction content (the name is not hashed), so
     each image salts its instruction stream with its name — four
     distinct images means exactly four scans, everything else hits. *)
  let image name =
    let salt = Hashtbl.hash name in
    Isa.Image.create ~name ~toolchain:Isa.Image.Rust_as_std
      (Isa.Inst.Mov_imm (Int32.of_int (salt land 0xffff))
      :: List.init 160 (fun i ->
             if i mod 5 = 0 then Isa.Inst.Mov_imm (Int32.of_int i) else Isa.Inst.Add))
  in
  (* The thumb chain hands its 32 KiB intermediate to the next stage
     through AsBuffer reference passing (the paper's zero-copy path),
     so the serving benchmark exercises asbuffer.transfer_bytes the
     way a real workflow would — not through a private scratch file. *)
  (* One shared payload for every producer call: the store path blits
     it into the buffer pages and the buffer keeps these same bytes;
     the consumer drains the slot and only counts them, so
     re-allocating 32 KiB per request was pure allocation.  Nothing
     writes to it: bytes passed to AsBuffer are shared with their
     receiver. *)
  let thumb_payload = Bytes.make (kib 32) 'd' in
  let produce_kernel slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms ms);
    ignore (Asbuffer.with_slot_raw ctx ~slot thumb_payload)
  in
  let consume_kernel slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asbuffer.consume_slot_raw ctx ~slot);
    Asstd.compute ctx (Units.ms ms)
  in
  let compute_kernel ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms ms)
  in
  (* Three tenants: a Rust chain, a Rust fan-out and a Python endpoint
     (the one that gains most from a warm CPython template). *)
  let endpoints_spec =
    [
      ( "thumb",
        Workflow.create_exn ~name:"thumb"
          ~nodes:[ node ~modules:[ "fdtab" ] "extract"; node "render" ]
          ~edges:[ ("extract", "render") ],
        [
          ("extract", Visor.bind ~image:(image "extract") (produce_kernel "thumb" 6));
          ("render", Visor.bind ~image:(image "render") (consume_kernel "thumb" 8));
        ] );
      ( "etl",
        Workflow.create_exn ~name:"etl"
          ~nodes:[ node ~instances:8 ~modules:[ "mm" ] "shard" ]
          ~edges:[],
        [ ("shard", Visor.bind ~image:(image "shard") (compute_kernel 12)) ] );
      ( "mlinf",
        Workflow.create_exn ~name:"mlinf"
          ~nodes:[ node ~language:Workflow.Python "infer" ]
          ~edges:[],
        [ ("infer", Visor.bind ~image:(image "infer") (compute_kernel 10)) ] );
    ]
  in
  let seed = 42 in
  let qps = 900.0 in
  let count = if !quick then 150 else 400 in
  let eps = Array.of_list (List.map (fun (e, _, _) -> e) endpoints_spec) in
  (* Serve a streamed seeded schedule (constant memory), folding each
     response through [f] as it completes. *)
  let fold server ~qps ~count ~init ~f =
    let next = Loadgen.request_stream ~seed ~qps ~endpoints:eps ~count () in
    Visor.Server.serve_fold server
      (fun () ->
        match next () with
        | None -> None
        | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
      ~init ~f
  in
  (* Every response field is virtual time or a deterministic counter:
     the per-response fingerprint must match across domain counts.  It
     is folded into a buffer sized for the whole run as responses
     complete. *)
  let rec add_digits buf n =
    if n >= 10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.chr (48 + (n mod 10)))
  in
  let add_int buf n =
    Buffer.add_char buf ',';
    add_digits buf n
  in
  let add_bool buf b =
    Buffer.add_char buf ',';
    Buffer.add_string buf (string_of_bool b)
  in
  let fingerprint buf (p : Visor.Server.response) =
    if Buffer.length buf > 0 then Buffer.add_char buf ';';
    Buffer.add_string buf p.Visor.Server.r_endpoint;
    add_int buf (Int64.to_int (Units.to_ns p.Visor.Server.r_arrival));
    add_int buf (Int64.to_int (Units.to_ns p.Visor.Server.r_finish));
    add_bool buf p.Visor.Server.r_warm;
    add_bool buf p.Visor.Server.r_ok;
    add_int buf p.Visor.Server.r_attempts;
    add_int buf p.Visor.Server.r_retries;
    buf
  in
  let serve_fingerprinted server ~qps ~count =
    fold server ~qps ~count ~init:(Buffer.create (56 * count)) ~f:fingerprint
  in
  (* Two burn-rate SLOs on every telemetry-enabled leg: a tight one the
     cold pool plausibly violates and a loose availability objective. *)
  let slo_specs () =
    [
      Slo.spec ~name:"lat50" ~latency:(Units.ms 50) ~objective:0.99 ();
      Slo.spec ~name:"lat200" ~latency:(Units.ms 200) ~objective:0.999 ();
    ]
  in
  let alert_json (a : Slo.alert) =
    Jsonlite.Obj
      [
        ("slo", Jsonlite.String a.Slo.al_slo);
        ( "kind",
          Jsonlite.String
            (match a.Slo.al_kind with Slo.Page -> "page" | Slo.Clear -> "clear") );
        ("at_s", Jsonlite.Float (Units.to_sec a.Slo.al_at));
        ("burn_fast", Jsonlite.Float a.Slo.al_fast);
        ("burn_slow", Jsonlite.Float a.Slo.al_slow);
      ]
  in
  let slo_json server =
    Jsonlite.Obj
      [
        ( "monitors",
          Jsonlite.List
            (List.map
               (fun m ->
                 let fast, slow = Slo.burn_rates m in
                 Jsonlite.Obj
                   [
                     ("name", Jsonlite.String (Slo.name m));
                     ("good", Jsonlite.Int (Slo.good m));
                     ("total", Jsonlite.Int (Slo.total m));
                     ("compliance", Jsonlite.Float (Slo.compliance m));
                     ("burn_fast", Jsonlite.Float fast);
                     ("burn_slow", Jsonlite.Float slow);
                     ("paging", Jsonlite.Bool (Slo.paging m));
                   ])
               (Visor.Server.slo_monitors server)) );
        ( "alerts",
          Jsonlite.List (List.map alert_json (Visor.Server.slo_alerts server)) );
      ]
  in
  let csv server =
    match Visor.Server.telemetry server with
    | Some ts -> Timeseries.to_csv ts
    | None -> ""
  in
  let nd = bench_domains () in
  (* One leg: a configured server run.  It sets the pool width,
     resets observability, turns span recording on or off, thins
     metrics reservoirs 1-in-[sample_every], creates a server over every
     endpoint, calls [run] on it, shuts the server down and restores
     the globals. *)
  let leg ?(domains = 1) ?(spans = false) ?(warm = true) ?(sample_every = 1)
      ?(sketch = false) run =
    Par.set_domains domains;
    reset_observability ();
    Span.set_enabled Span.global spans;
    Metrics.set_raw_sample_every ~seed sample_every;
    let server =
      Visor.Server.create ~warm ~sample_every ~sample_seed:seed ~sketch_latency:sketch ()
    in
    List.iter
      (fun (endpoint, workflow, bindings) ->
        Visor.Server.register server ~endpoint ~workflow ~bindings ())
      endpoints_spec;
    let r = run server in
    Visor.Server.shutdown server;
    Span.set_enabled Span.global false;
    Metrics.set_raw_sample_every 1;
    Par.set_domains 1;
    r
  in
  (* Span-trace both pool modes.  The per-request critical-path
     aggregate and the exported trace / metrics documents are pure
     virtual-time artifacts, so the CI smoke job diffs them across two
     runs alongside the summary JSON. *)
  let request_breakdown () =
    let roots =
      List.filter
        (fun (sp : Span.span) -> String.equal sp.Span.sp_category "request")
        (Span.roots Span.global)
    in
    let bds =
      List.map (fun (sp : Span.span) -> Obs.breakdown ~root:sp.Span.sp_id ()) roots
    in
    let sum f = List.fold_left (fun acc bd -> Units.add acc (f bd)) Units.zero bds in
    let ns t = Jsonlite.Int (Int64.to_int (Units.to_ns t)) in
    Jsonlite.Obj
      [
        ("requests", Jsonlite.Int (List.length bds));
        ("total_ns", ns (sum (fun bd -> bd.Obs.bd_total)));
        ( "buckets",
          Jsonlite.Obj
            (List.map
               (fun c -> (c, ns (sum (fun bd -> List.assoc c bd.Obs.bd_buckets))))
               (Obs.categories @ [ "other" ])) );
      ]
  in
  let summary_fields (s : Visor.Server.summary) =
    [
      ("completed", Jsonlite.Int s.Visor.Server.sm_completed);
      ("failed", Jsonlite.Int s.Visor.Server.sm_failed);
      ("throughput_rps", Jsonlite.Float s.Visor.Server.sm_throughput_rps);
      ("mean_us", Jsonlite.Float (Units.to_us s.Visor.Server.sm_mean_latency));
      ("p50_us", Jsonlite.Float (Units.to_us s.Visor.Server.sm_p50_latency));
      ("p99_us", Jsonlite.Float (Units.to_us s.Visor.Server.sm_p99_latency));
      ("max_inflight", Jsonlite.Int s.Visor.Server.sm_max_inflight);
      ("warm_starts", Jsonlite.Int s.Visor.Server.sm_warm_starts);
      ("cold_starts", Jsonlite.Int s.Visor.Server.sm_cold_starts);
    ]
  in
  let mode_json (s : Visor.Server.summary) =
    Jsonlite.Obj
      (summary_fields s
      @ [
          ("admission_hits", Jsonlite.Int s.Visor.Server.sm_adm_hits);
          ("admission_scans", Jsonlite.Int s.Visor.Server.sm_adm_scans);
          ("evictions", Jsonlite.Int s.Visor.Server.sm_evictions);
          ("peak_rss", Jsonlite.Int s.Visor.Server.sm_machine_peak_rss);
        ])
  in
  let summary_json (s : Visor.Server.summary) =
    Jsonlite.Obj
      (summary_fields s
      @ [ ("latency_sketched", Jsonlite.Bool s.Visor.Server.sm_latency_sketched) ])
  in
  (* Each pool mode runs on one domain and on the requested pool: every
     virtual artifact (responses, summary, span breakdown, trace and
     metrics exports) must be byte-identical.  CI re-checks this across
     separate --domains invocations. *)
  let base_leg ~domains ~warm =
    let fp, s, csv, alerts, slo =
      leg ~domains ~warm ~spans:true (fun server ->
          Visor.Server.enable_telemetry server ~slos:(slo_specs ()) ();
          let buf, s = serve_fingerprinted server ~qps ~count in
          let alerts =
            String.concat "\n"
              (List.map Slo.render_alert (Visor.Server.slo_alerts server))
          in
          (Buffer.contents buf, s, csv server, alerts, slo_json server))
    in
    let breakdown = request_breakdown () in
    let trace = Obs.trace_json_string () in
    let metrics = Obs.metrics_json_string () in
    let prom = Obs.prometheus_string () in
    let tails = Obs.tails () in
    {
      lg_summary = s;
      lg_fingerprint = fp;
      lg_breakdown = breakdown;
      lg_trace = trace;
      lg_metrics = metrics;
      lg_prom = prom;
      lg_csv = csv;
      lg_alerts = alerts;
      lg_slo = slo;
      lg_tails = Obs.tails_json tails;
      lg_tails_render = Obs.render_tails tails;
    }
  in
  let warm1 = base_leg ~domains:1 ~warm:true in
  let cold1 = base_leg ~domains:1 ~warm:false in
  let warm = base_leg ~domains:nd ~warm:true in
  let cold = base_leg ~domains:nd ~warm:false in
  let check label a b =
    if not (String.equal a b) then begin
      Printf.eprintf
        "serving: %s differs between --domains 1 and --domains %d\n" label nd;
      exit 1
    end
  in
  List.iter
    (fun (mode, a, b) ->
      let check what = check (mode ^ " " ^ what) in
      check "responses" a.lg_fingerprint b.lg_fingerprint;
      check "summary"
        (Jsonlite.to_string (mode_json a.lg_summary))
        (Jsonlite.to_string (mode_json b.lg_summary));
      check "breakdown" (Jsonlite.to_string a.lg_breakdown)
        (Jsonlite.to_string b.lg_breakdown);
      check "trace export" a.lg_trace b.lg_trace;
      check "metrics export" a.lg_metrics b.lg_metrics;
      (* The observability artifacts obey the same contract: every
         timeseries window, alert instant, tail verdict and exporter
         byte is identical whatever the host domain pool width. *)
      check "prometheus export" a.lg_prom b.lg_prom;
      check "timeseries csv" a.lg_csv b.lg_csv;
      check "slo alerts" a.lg_alerts b.lg_alerts;
      check "slo summary" (Jsonlite.to_string a.lg_slo) (Jsonlite.to_string b.lg_slo);
      check "tails" a.lg_tails_render b.lg_tails_render)
    [ ("warm", warm1, warm); ("cold", cold1, cold) ];
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Serving: %d requests, 3 tenants, seeded open loop (seed %d)"
           count seed)
      ~columns:
        [ "Pool"; "done"; "req/s"; "p50"; "p99"; "max inflight"; "warm/cold";
          "adm hit/scan" ]
  in
  let row label (s : Visor.Server.summary) =
    Table.add_row t
      [
        label;
        string_of_int s.Visor.Server.sm_completed;
        Printf.sprintf "%.0f" s.Visor.Server.sm_throughput_rps;
        pp_t s.Visor.Server.sm_p50_latency;
        pp_t s.Visor.Server.sm_p99_latency;
        string_of_int s.Visor.Server.sm_max_inflight;
        Printf.sprintf "%d/%d" s.Visor.Server.sm_warm_starts s.Visor.Server.sm_cold_starts;
        Printf.sprintf "%d/%d" s.Visor.Server.sm_adm_hits s.Visor.Server.sm_adm_scans;
      ]
  in
  row "warm (template clone)" warm.lg_summary;
  row "cold (no pool)" cold.lg_summary;
  Table.print t;
  (* Burn-rate alerts and the warm-pool tail attribution, both
     deterministic; the cold run's tail table is in the JSON. *)
  if String.length warm.lg_alerts > 0 then
    Printf.printf "warm alerts:\n%s\n" warm.lg_alerts;
  if String.length cold.lg_alerts > 0 then
    Printf.printf "cold alerts:\n%s\n" cold.lg_alerts;
  print_string warm.lg_tails_render;
  print_newline ();
  (* Single-request boot comparison: the substitution the warm pool
     makes on the critical path. *)
  let one ~warm ~prewarm =
    leg ~warm (fun server ->
        if prewarm then ignore (Visor.Server.prewarm server ~endpoint:"mlinf");
        match
          Visor.Server.serve server
            [ { Visor.Server.endpoint = "mlinf"; arrival = Units.zero } ]
        with
        | [ resp ], _ -> resp.Visor.Server.r_latency
        | _ -> Units.zero)
  in
  let warm_one = one ~warm:true ~prewarm:true in
  let cold_one = one ~warm:false ~prewarm:false in
  Printf.printf
    "single Python request: cold boot %s vs warm clone %s (%.1fx)\n\n" (pp_t cold_one)
    (pp_t warm_one)
    (Units.to_us cold_one /. Float.max 1e-9 (Units.to_us warm_one));
  (* --sweep: qps sweep (latency-vs-load curve + saturation knee) and
     the 10^5-request streaming scale leg.  Observability is sampled
     1-in-k so trace/span state stays O(n/k); metrics raw reservoirs
     are thinned the same way.  Virtual outputs stay deterministic and
     the scale leg is asserted byte-identical across domain counts. *)
  let sample_every = 64 in
  (* Largest sweep point strictly below the saturation knee — the rate
     the soak leg runs at.  Without --sweep the default matches the
     measured sub-knee point of the full sweep. *)
  let sub_knee_qps = ref 300.0 in
  let sweep_sections =
    if not !sweep_flag then []
    else begin
      let sweep_count = if !quick then 300 else 1500 in
      let points = [ 300.0; 600.0; 900.0; 1200.0; 1500.0; 1800.0 ] in
      let run_point q =
        leg ~sample_every (fun server ->
            snd (fold server ~qps:q ~count:sweep_count ~init:() ~f:(fun () _ -> ())))
      in
      let results = List.map (fun q -> (q, run_point q)) points in
      (* Saturation knee: the first offered load whose p99 blows past
         2x the lightest point's p99 (the curve's elbow); if the sweep
         never saturates, the knee is the last point. *)
      let base_p99 =
        match results with
        | (_, s0) :: _ -> Units.to_us s0.Visor.Server.sm_p99_latency
        | [] -> 0.0
      in
      let knee_qps =
        match
          List.find_opt
            (fun (_, (s : Visor.Server.summary)) ->
              Units.to_us s.Visor.Server.sm_p99_latency > 2.0 *. base_p99)
            results
        with
        | Some (q, _) -> q
        | None -> ( match List.rev results with (q, _) :: _ -> q | [] -> 0.0)
      in
      (* The soak rate must be sustainable for a virtual hour, so pick
         the largest point where the server kept pace with arrivals
         (measured throughput within 5% of the offered rate) — the
         p99-based knee can sit above capacity, and on short --quick
         sweeps may not trigger at all. *)
      (match
         List.rev
           (List.filter
              (fun (q, s) ->
                s.Visor.Server.sm_throughput_rps >= 0.95 *. q && q < knee_qps)
              results)
       with
      | (q, _) :: _ -> sub_knee_qps := q
      | [] -> ());
      let st =
        Table.create
          ~title:
            (Printf.sprintf "Serving sweep: %d requests/point, knee ~%.0f qps"
               sweep_count knee_qps)
          ~columns:[ "qps"; "done"; "req/s"; "p50"; "p99"; "max inflight" ]
      in
      List.iter
        (fun (q, (s : Visor.Server.summary)) ->
          Table.add_row st
            [
              Printf.sprintf "%.0f" q;
              string_of_int s.Visor.Server.sm_completed;
              Printf.sprintf "%.0f" s.Visor.Server.sm_throughput_rps;
              pp_t s.Visor.Server.sm_p50_latency;
              pp_t s.Visor.Server.sm_p99_latency;
              string_of_int s.Visor.Server.sm_max_inflight;
            ])
        results;
      Table.print st;
      let point_json (q, (s : Visor.Server.summary)) =
        Jsonlite.Obj
          [
            ("qps", Jsonlite.Float q);
            ("completed", Jsonlite.Int s.Visor.Server.sm_completed);
            ("failed", Jsonlite.Int s.Visor.Server.sm_failed);
            ("throughput_rps", Jsonlite.Float s.Visor.Server.sm_throughput_rps);
            ("p50_us", Jsonlite.Float (Units.to_us s.Visor.Server.sm_p50_latency));
            ("p99_us", Jsonlite.Float (Units.to_us s.Visor.Server.sm_p99_latency));
            ("max_inflight", Jsonlite.Int s.Visor.Server.sm_max_inflight);
          ]
      in
      let sweep_json =
        Jsonlite.Obj
          [
            ("requests_per_point", Jsonlite.Int sweep_count);
            ("sample_every", Jsonlite.Int sample_every);
            ("knee_qps", Jsonlite.Float knee_qps);
            ("points", Jsonlite.List (List.map point_json results));
          ]
      in
      (* Scale leg: 10^5 requests streamed through the server with
         sampled observability, once on one domain and once on the
         requested pool; responses and summary must be byte-identical
         (the fingerprint is MD5'd — 10^5 responses make a long
         string). *)
      let scale_count = if !quick then 20_000 else 100_000 in
      (* Below the knee: the scale leg demonstrates sustained healthy
         serving (bounded in-flight, bounded memory), not queue
         collapse — the sweep above covers the saturated regime. *)
      let scale_qps = 300.0 in
      let scale_leg ?(telemetry = false) ~domains () =
        let buf, s =
          leg ~domains ~sample_every (fun server ->
              if telemetry then
                Visor.Server.enable_telemetry server ~slos:(slo_specs ()) ();
              serve_fingerprinted server ~qps:scale_qps ~count:scale_count)
        in
        (Digest.to_hex (Digest.string (Buffer.contents buf)), s)
      in
      let fp1, scale_s1 = scale_leg ~domains:1 () in
      let fpn, scale_sn = scale_leg ~domains:nd () in
      check "scale responses (fingerprint)" fp1 fpn;
      check "scale summary"
        (Jsonlite.to_string (mode_json scale_s1))
        (Jsonlite.to_string (mode_json scale_sn));
      (* The same leg with per-window telemetry and SLO monitors on:
         responses must not change (telemetry is pure observation). *)
      let fp_tel, _ = scale_leg ~telemetry:true ~domains:nd () in
      check "scale responses with telemetry (fingerprint)" fpn fp_tel;
      Printf.printf
        "scale: %d requests, sample 1/%d: p50 %s p99 %s, %d warm / %d cold\n"
        scale_count sample_every
        (pp_t scale_sn.Visor.Server.sm_p50_latency)
        (pp_t scale_sn.Visor.Server.sm_p99_latency)
        scale_sn.Visor.Server.sm_warm_starts scale_sn.Visor.Server.sm_cold_starts;
      (* Constant-memory serve: fold each response through [f] as it
         completes (never materialised), latency percentiles from the
         server's t-digest.  Probes live words (full major + stat) in
         flight so the flat-memory claim is checked at peak, not after
         the GC has cleaned up — live words, not heap size, because the
         major heap legitimately expands with allocation churn at
         10^6. *)
      let fold_leg ~count ~sample_every ~exact =
        let exact_lat, peak_live, s =
          leg ~domains:nd ~sample_every ~sketch:true (fun server ->
              let exact_lat = Stats.create () in
              let seen = ref 0 and peak_live = ref 0 in
              let (), s =
                fold server ~qps:scale_qps ~count ~init:()
                  ~f:(fun () (p : Visor.Server.response) ->
                    incr seen;
                    if exact && p.Visor.Server.r_ok then
                      Stats.add_time exact_lat p.Visor.Server.r_latency;
                    if !seen land 16383 = 0 then begin
                      Gc.full_major ();
                      peak_live := Stdlib.max !peak_live (Gc.stat ()).Gc.live_words
                    end)
              in
              (exact_lat, !peak_live, s))
        in
        (s, exact_lat, peak_live)
      in
      (* Sketch accuracy leg: the same 10^5 stream through serve_fold
         with sketch_latency (no retained latencies), while the fold
         accumulates the exact latency population.  Sketch p50/p99 must
         land within 2% of exact. *)
      let fold_s, fold_exact, _ = fold_leg ~count:scale_count ~sample_every ~exact:true in
      if
        fold_s.Visor.Server.sm_completed <> scale_sn.Visor.Server.sm_completed
        || fold_s.Visor.Server.sm_failed <> scale_sn.Visor.Server.sm_failed
        || fold_s.Visor.Server.sm_max_inflight <> scale_sn.Visor.Server.sm_max_inflight
      then begin
        Printf.eprintf "serving: the sketched fold disagrees with the scale leg\n";
        exit 1
      end;
      let ns_of t = Int64.to_float (Units.to_ns t) in
      let ex50 = Stats.percentile fold_exact 50.0 in
      let ex99 = Stats.percentile fold_exact 99.0 in
      let sk50 = ns_of fold_s.Visor.Server.sm_p50_latency in
      let sk99 = ns_of fold_s.Visor.Server.sm_p99_latency in
      let rel a b = Float.abs (a -. b) /. Float.max 1e-9 (Float.abs b) in
      let err50 = rel sk50 ex50 and err99 = rel sk99 ex99 in
      Printf.printf
        "scale sketch: p50 %.1f us (exact %.1f, err %.2f%%), p99 %.1f us (exact %.1f, err %.2f%%)\n"
        (sk50 /. 1e3) (ex50 /. 1e3) (100.0 *. err50) (sk99 /. 1e3) (ex99 /. 1e3)
        (100.0 *. err99);
      if err50 > 0.02 || err99 > 0.02 then begin
        Printf.eprintf
          "serving: sketch percentiles drifted past 2%% of exact (p50 %.2f%%, p99 %.2f%%)\n"
          (100.0 *. err50) (100.0 *. err99);
        exit 1
      end;
      (* Deep leg: an order of magnitude past the byte-identity leg,
         fold-only — nothing materialised, percentiles from the sketch.
         The peak major-heap sample bounds live memory at
         O(window + in-flight): a materialised response list at this
         count would alone exceed the cap. *)
      let deep_count =
        if !deep_requests_flag > 0 then !deep_requests_flag
        else if !quick then 50_000
        else 1_000_000
      in
      let deep_sample = 256 in
      let deep_s, _, deep_live =
        fold_leg ~count:deep_count ~sample_every:deep_sample ~exact:false
      in
      (* O(window + inflight + n/k sampled spans) live words: ~2-4M in
         practice; a materialised response list alone would add ~15
         words per request (~15M at 10^6) and blow the cap. *)
      let deep_live_cap = 8_000_000 in
      Printf.printf
        "deep: %d requests via serve_fold, sample 1/%d: p50 %s p99 %s; peak live %d words (cap %d)\n\n"
        deep_count deep_sample
        (pp_t deep_s.Visor.Server.sm_p50_latency)
        (pp_t deep_s.Visor.Server.sm_p99_latency)
        deep_live deep_live_cap;
      if deep_live > deep_live_cap then begin
        Printf.eprintf
          "serving: deep fold peak live %d words exceeds cap %d — response stream is being retained\n"
          deep_live deep_live_cap;
        exit 1
      end;
      let scale_json =
        Jsonlite.Obj
          [
            ("requests", Jsonlite.Int scale_count);
            ("qps", Jsonlite.Float scale_qps);
            ("sample_every", Jsonlite.Int sample_every);
            (* Deterministic across domain counts (asserted above). *)
            ( "virtual",
              Jsonlite.Obj
                [
                  ("summary", mode_json scale_sn);
                  ("response_fingerprint_md5", Jsonlite.String fpn);
                  ( "sketch",
                    Jsonlite.Obj
                      [
                        ("p50_us", Jsonlite.Float (sk50 /. 1e3));
                        ("p99_us", Jsonlite.Float (sk99 /. 1e3));
                        ("exact_p50_us", Jsonlite.Float (ex50 /. 1e3));
                        ("exact_p99_us", Jsonlite.Float (ex99 /. 1e3));
                      ] );
                ] );
            ( "deep",
              Jsonlite.Obj
                [
                  ("requests", Jsonlite.Int deep_count);
                  ("qps", Jsonlite.Float scale_qps);
                  ("sample_every", Jsonlite.Int deep_sample);
                  ("virtual", Jsonlite.Obj [ ("summary", summary_json deep_s) ]);
                  ("host", Jsonlite.Obj [ ("peak_live_words", Jsonlite.Int deep_live) ]);
                ] );
          ]
      in
      [ ("sweep", sweep_json); ("scale", scale_json) ]
    end
  in
  (* --soak: a virtual hour at the sub-knee rate through the soak
     runner: periodic snapshot lines and a flat-memory verdict
     (Baselines.Soak). *)
  let soak_sections =
    if not !soak_flag then []
    else begin
      let soak_qps = !sub_knee_qps in
      let virtual_s =
        if !soak_seconds_flag > 0 then !soak_seconds_flag
        else if !quick then 120
        else 3600
      in
      let r, soak_slo, soak_csv =
        leg ~domains:nd ~sample_every ~sketch:true (fun server ->
            Soak.enable_telemetry server ~seconds:virtual_s ~slos:(slo_specs ());
            let r = Soak.run server ~seed ~qps:soak_qps ~endpoints:eps ~seconds:virtual_s in
            (r, slo_json server, csv server))
      in
      let soak_s = r.Soak.summary and snaps = r.Soak.snapshots in
      (match Soak.memory_verdict snaps with
      | Some { Soak.flat = false; first; worst } ->
          Printf.eprintf "serving: soak live words grew %d -> %d — memory is not flat\n"
            first worst;
          exit 1
      | Some _ | None -> ());
      Printf.printf
        "soak: %.0f qps for %ds virtual: %d completed, %d failed, p50 %s p99 %s\n\n"
        soak_qps virtual_s soak_s.Visor.Server.sm_completed
        soak_s.Visor.Server.sm_failed
        (pp_t soak_s.Visor.Server.sm_p50_latency)
        (pp_t soak_s.Visor.Server.sm_p99_latency);
      let snap_virtual (sn : Soak.snapshot) =
        Jsonlite.Obj
          [
            ("t_s", Jsonlite.Int sn.Soak.sn_at);
            ("completed", Jsonlite.Int sn.Soak.sn_completed);
            ("inflight", Jsonlite.Int sn.Soak.sn_inflight);
            ("p50_us", Jsonlite.Float (Units.to_us sn.Soak.sn_p50));
            ("p99_us", Jsonlite.Float (Units.to_us sn.Soak.sn_p99));
          ]
      in
      let soak_json =
        Jsonlite.Obj
          [
            ("qps", Jsonlite.Float soak_qps);
            ("virtual_seconds", Jsonlite.Int virtual_s);
            ("sample_every", Jsonlite.Int sample_every);
            ( "virtual",
              Jsonlite.Obj
                [
                  ("summary", summary_json soak_s);
                  ("snapshots", Jsonlite.List (List.map snap_virtual snaps));
                  ("slo", soak_slo);
                  ( "timeseries_rows",
                    Jsonlite.Int
                      (List.length (String.split_on_char '\n' soak_csv)) );
                ] );
            ( "host",
              Jsonlite.Obj
                [
                  ( "snapshot_live_words",
                    Jsonlite.List
                      (List.map (fun sn -> Jsonlite.Int sn.Soak.sn_live_words) snaps) );
                ] );
          ]
      in
      [ ("soak", soak_json) ]
    end
  in
  let json =
    Jsonlite.Obj
      ([
         ("seed", Jsonlite.Int seed);
         ("requests", Jsonlite.Int count);
         ("qps", Jsonlite.Float qps);
         (* Deterministic: identical for every domain count (asserted
            above and diffed by CI). *)
         ( "virtual",
           Jsonlite.Obj
             [
               ("warm", mode_json warm.lg_summary);
               ("cold", mode_json cold.lg_summary);
               ("single_cold_us", Jsonlite.Float (Units.to_us cold_one));
               ("single_warm_us", Jsonlite.Float (Units.to_us warm_one));
               ( "breakdown",
                 Jsonlite.Obj
                   [ ("warm", warm.lg_breakdown); ("cold", cold.lg_breakdown) ] );
               ( "slo",
                 Jsonlite.Obj [ ("warm", warm.lg_slo); ("cold", cold.lg_slo) ] );
               ( "tails",
                 Jsonlite.Obj
                   [ ("warm", warm.lg_tails); ("cold", cold.lg_tails) ] );
             ] );
       ]
      @ sweep_sections @ soak_sections)
  in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    output_string oc "\n";
    close_out oc
  in
  write "BENCH_serving.json" (Jsonlite.to_string json);
  write "BENCH_serving_trace.json" warm.lg_trace;
  write "BENCH_serving_metrics.json" warm.lg_metrics;
  (* Exporter snapshots of the warm leg (deterministic, CI-diffed):
     Prometheus text format and the windowed timeseries as CSV. *)
  write "BENCH_serving_prom.txt" warm.lg_prom;
  write "BENCH_serving_timeseries.csv" warm.lg_csv;
  print_endline
    "wrote BENCH_serving.json, BENCH_serving_trace.json, BENCH_serving_metrics.json,\n\
    \      BENCH_serving_prom.txt, BENCH_serving_timeseries.csv"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("table4", table4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("ext", ext);
    ("chaos", chaos);
    ("serving", serving);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--quick" | "-q") :: rest ->
        quick := true;
        parse acc rest
    | "--sweep" :: rest ->
        sweep_flag := true;
        parse acc rest
    | "--soak" :: rest ->
        soak_flag := true;
        parse acc rest
    | "--soak-seconds" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s when s >= 1 ->
            soak_seconds_flag := s;
            parse acc rest
        | _ ->
            Printf.eprintf "--soak-seconds expects a positive integer, got %S\n" n;
            exit 2)
    | [ "--soak-seconds" ] ->
        Printf.eprintf "--soak-seconds expects a positive integer\n";
        exit 2
    | "--deep-requests" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            deep_requests_flag := d;
            parse acc rest
        | _ ->
            Printf.eprintf "--deep-requests expects a positive integer, got %S\n"
              n;
            exit 2)
    | [ "--deep-requests" ] ->
        Printf.eprintf "--deep-requests expects a positive integer\n";
        exit 2
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            domains_flag := d;
            parse acc rest
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" n;
            exit 2)
    | [ "--domains" ] ->
        Printf.eprintf "--domains expects a positive integer\n";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with
    | [] | [ "all" ] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some fn -> (name, fn)
            | None ->
                Printf.eprintf "unknown experiment %s; available: %s\n" name
                  (String.concat " " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf "AlloyStack reproduction benchmarks%s\n\n"
    (if !quick then " (quick mode: sizes reduced)" else "");
  List.iter
    (fun (name, fn) ->
      Printf.printf ">>> %s\n%!" name;
      reset_observability ();
      let t0 = Unix.gettimeofday () in
      fn ();
      Printf.printf "(%s took %.1fs of host time)\n\n%!" name (Unix.gettimeofday () -. t0))
    selected
