(* Integration tests across platforms: every comparison system runs the
   shared workloads correctly, and the paper's qualitative orderings
   hold. *)

open Sim
open Baselines
open Workloads

let small_pipe = Pipe_app.app ~seed:41 ~size:(256 * 1024)
let small_wc () = Wordcount.app ~seed:42 ~size:(256 * 1024) ~instances:2
let small_ps () = Parallel_sorting.app ~seed:43 ~size:(256 * 1024) ~instances:2
let small_chain () = Function_chain.app ~seed:44 ~payload:(64 * 1024) ~length:4

let all_rust_platforms =
  [
    As_platform.alloystack;
    As_platform.alloystack_ifi;
    As_platform.alloystack_ramfs;
    Faastlane.default_;
    Faastlane.refer;
    Faastlane.refer_kata;
    Openfaas.openfaas;
    Openfaas.openfaas_gvisor;
  ]

let wasm_platforms = [ As_platform.alloystack_c; As_platform.alloystack_py; Faasm.c; Faasm.python ]

let run (p : Platform.t) app = p.Platform.run app

let check_ok label (m : Platform.metrics) =
  match m.Platform.validated with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s on %s: %s" label m.Platform.platform e)

let test_all_platforms_validate_pipe () =
  List.iter
    (fun p -> check_ok "pipe" (run p small_pipe))
    (all_rust_platforms @ wasm_platforms)

let test_all_platforms_validate_wordcount () =
  List.iter (fun p -> check_ok "wordcount" (run p (small_wc ()))) all_rust_platforms

let test_wasm_platforms_validate_wordcount () =
  List.iter (fun p -> check_ok "wordcount" (run p (small_wc ()))) wasm_platforms

let test_all_platforms_validate_sorting () =
  List.iter (fun p -> check_ok "sorting" (run p (small_ps ()))) all_rust_platforms

let test_all_platforms_validate_chain () =
  List.iter (fun p -> check_ok "chain" (run p (small_chain ()))) all_rust_platforms

let test_image_pipeline_on_alloystack () =
  check_ok "image" (run As_platform.alloystack (Image_meta.image_pipeline ~seed:9))

(* --- qualitative orderings from the paper --- *)

let e2e p app = (run p app).Platform.e2e

let test_kata_cold_start_dominates () =
  (* Faastlane-refer-kata pays the MicroVM boot: much slower than plain
     Faastlane on a small workload (the 38.7x effect). *)
  let kata = e2e Faastlane.refer_kata (small_ps ()) in
  let plain = e2e Faastlane.refer (small_ps ()) in
  Alcotest.(check bool) "kata >> plain" true (Units.( > ) kata (Units.scale plain 10.0))

let test_alloystack_beats_openfaas () =
  (* Per-function container boots + Redis forwarding: OpenFaaS is far
     slower than AlloyStack on every workflow (6.5-29.3x in Fig. 12). *)
  List.iter
    (fun app ->
      let asx = e2e As_platform.alloystack app in
      let ofs = e2e Openfaas.openfaas app in
      Alcotest.(check bool) "AS much faster" true (Units.( > ) ofs (Units.scale asx 4.0)))
    [ small_wc (); small_ps (); small_chain () ]

let test_alloystack_beats_faasm_on_chain () =
  (* FunctionChain stresses the data plane: AS-C wins 3-12.4x. *)
  let app = Function_chain.app ~seed:45 ~payload:(1024 * 1024) ~length:6 in
  let asc = e2e As_platform.alloystack_c app in
  let faasm = e2e Faasm.c app in
  Alcotest.(check bool) "AS-C faster on chain" true
    (Units.( > ) faasm (Units.scale asc 1.5))

let test_ifi_costs_a_little () =
  let app = small_pipe in
  let base = e2e As_platform.alloystack app in
  let ifi = e2e As_platform.alloystack_ifi app in
  Alcotest.(check bool) "IFI slower" true (Units.( >= ) ifi base);
  Alcotest.(check bool) "but within 35%" true
    (Units.( <= ) ifi (Units.scale base 1.35))

let test_ablation_ordering () =
  (* Fig. 14: base >= +on-demand, base >= +ref-passing, both <= each. *)
  let app = Function_chain.app ~seed:46 ~payload:(512 * 1024) ~length:5 in
  let t_base = e2e (As_platform.ablation ~on_demand:false ~ref_passing:false) app in
  let t_od = e2e (As_platform.ablation ~on_demand:true ~ref_passing:false) app in
  let t_rp = e2e (As_platform.ablation ~on_demand:false ~ref_passing:true) app in
  let t_both = e2e (As_platform.ablation ~on_demand:true ~ref_passing:true) app in
  Alcotest.(check bool) "on-demand helps" true (Units.( < ) t_od t_base);
  Alcotest.(check bool) "ref-passing helps" true (Units.( < ) t_rp t_base);
  Alcotest.(check bool) "both best" true
    (Units.( <= ) t_both (Units.min t_od t_rp))

let test_python_dominated_by_runtime_init () =
  let m = run As_platform.alloystack_py small_pipe in
  check_ok "pipe-py" m;
  Alcotest.(check bool) "AS-Py cold start > 1.5s" true
    (Units.( > ) m.Platform.cold_start (Units.ms 1500))

let test_cpu_memory_reduction_fig17b () =
  (* AlloyStack uses substantially less CPU and memory than
     Faastlane-refer-kata (2.4x / 3.2x in the appendix). *)
  let app = small_ps () in
  let as_m = run As_platform.alloystack app in
  let kata_m = run Faastlane.refer_kata app in
  Alcotest.(check bool) "cpu reduced" true
    (Units.( > ) kata_m.Platform.cpu_time as_m.Platform.cpu_time);
  Alcotest.(check bool) "memory reduced" true
    (kata_m.Platform.peak_rss > as_m.Platform.peak_rss)

let test_phase_totals_populated () =
  let m = run As_platform.alloystack (small_wc ()) in
  Alcotest.(check bool) "read phase present" true
    (Units.( > ) (Platform.phase_total m Fctx.phase_read) Units.zero);
  Alcotest.(check bool) "transfer phase present" true
    (Units.( > ) (Platform.phase_total m Fctx.phase_transfer) Units.zero)

let test_speedup_helper () =
  let a = run As_platform.alloystack small_pipe in
  let b = run Openfaas.openfaas small_pipe in
  Alcotest.(check bool) "speedup > 1" true (Platform.speedup a ~over:b > 1.0);
  Alcotest.(check bool) "inverse < 1" true (Platform.speedup b ~over:a < 1.0)

(* --- load generator (Fig. 17a machinery) --- *)

let test_loadgen_light_load_no_queueing () =
  let spec =
    { Loadgen.cores = 16; width = 2; service = Units.ms 10; contention = 0.0 }
  in
  let r = Loadgen.run spec ~qps:10.0 ~requests:300 in
  (* Far below saturation: sojourn ~ service. *)
  Alcotest.(check bool) "p50 ~ service" true
    (Units.( < ) r.Loadgen.p50 (Units.ms 12));
  Alcotest.(check bool) "p99 bounded" true (Units.( < ) r.Loadgen.p99 (Units.ms 30))

let test_loadgen_saturation_queues () =
  let spec =
    { Loadgen.cores = 4; width = 2; service = Units.ms 10; contention = 0.0 }
  in
  let sat = Loadgen.saturation_qps spec in
  Alcotest.(check (float 1e-6)) "saturation point" 200.0 sat;
  let below = Loadgen.run spec ~qps:(sat *. 0.5) ~requests:400 in
  let above = Loadgen.run spec ~qps:(sat *. 1.5) ~requests:400 in
  Alcotest.(check bool) "overload explodes p99" true
    (Units.( > ) above.Loadgen.p99 (Units.scale below.Loadgen.p99 4.0))

let test_loadgen_contention_hurts () =
  let base = { Loadgen.cores = 32; width = 2; service = Units.ms 10; contention = 0.0 } in
  let contended = { base with Loadgen.contention = 0.05 } in
  let a = Loadgen.run base ~qps:100.0 ~requests:400 in
  let b = Loadgen.run contended ~qps:100.0 ~requests:400 in
  Alcotest.(check bool) "contention raises p99" true
    (Units.( > ) b.Loadgen.p99 a.Loadgen.p99)

let test_loadgen_width_check () =
  match
    Loadgen.run
      { Loadgen.cores = 2; width = 4; service = Units.ms 1; contention = 0.0 }
      ~qps:1.0 ~requests:1
  with
  | _ -> Alcotest.fail "width > cores must fail"
  | exception Invalid_argument _ -> ()

(* --- §9 multi-node split --- *)

(* Four one-instance stages over one slot: s0 sends it and every stage
   in [readers] reads it.  At two nodes, s0 and s1 run in one WFD and
   s2 and s3 in another. *)
let one_slot_app readers =
  let kernel i (f : Fctx.t) =
    if i = 0 then f.Fctx.send ~slot:"x" (Bytes.make 4096 'x')
    else if List.mem i readers then ignore (f.Fctx.recv ~slot:"x")
  in
  {
    Fctx.app_name = "OneSlot";
    stages = List.init 4 (fun i -> (Printf.sprintf "s%d" i, 1, kernel i));
    inputs = [];
    validate = (fun ~read_output:_ -> Ok ());
    modules = [ "mm" ];
  }

let on_nodes nodes = As_platform.make ~options:{ As_platform.default_options with nodes } ()

let test_split_reads_a_payload_once () =
  check_ok "one remote pull" (run (on_nodes 2) (one_slot_app [ 2 ]));
  (* AsBuffer frees a slot when it is read, so a second read fails in
     one WFD; a split must fail at the same function, not serve the
     payload again from its cross-node copy. *)
  List.iter
    (fun (label, readers, fails_at) ->
      List.iter
        (fun nodes ->
          match run (on_nodes nodes) (one_slot_app readers) with
          | _ -> Alcotest.failf "%s at %d node(s): the second read must fail" label nodes
          | exception Alloystack_core.Visor.Function_failed { fn; _ } ->
              Alcotest.(check string)
                (Printf.sprintf "%s at %d node(s)" label nodes)
                fails_at fn)
        [ 1; 2 ])
    [
      ("read in its own group, then by a later one", [ 1; 2 ], "s2");
      ("pulled remotely twice", [ 2; 3 ], "s3");
    ]

(* --- Fig. 10 single-function cold starts --- *)

let test_figure10_shape () =
  let entries = Singlefn.figure10 () in
  let get label =
    match List.find_opt (fun (e : Singlefn.entry) -> e.Singlefn.label = label) entries with
    | Some e -> Units.to_ms e.Singlefn.cold_start
    | None -> Alcotest.fail ("missing " ^ label)
  in
  Alcotest.(check bool) "AS ~1.3ms" true (get "AS" > 1.2 && get "AS" < 1.45);
  Alcotest.(check bool) "load-all ~89.4ms" true
    (get "AS-load-all" > 87.0 && get "AS-load-all" < 92.0);
  Alcotest.(check bool) "Faastlane-T < AS" true (get "Faastlane-T" < get "AS");
  Alcotest.(check bool) "Wasmer-T ~7.6" true (get "Wasmer-T" > 7.0 && get "Wasmer-T" < 8.0);
  Alcotest.(check bool) "Wasmer ~342" true (get "Wasmer" > 330.0 && get "Wasmer" < 355.0);
  Alcotest.(check bool) "Virtines ~22.8" true (get "Virtines" > 21.0 && get "Virtines" < 25.0);
  Alcotest.(check bool) "AS < Virtines" true (get "AS" < get "Virtines");
  Alcotest.(check bool) "python runtimes slowest" true
    (get "AS-Py" > get "gVisor" && get "Faasm-Py" > get "AS-Py")

let suite =
  [
    Alcotest.test_case "pipe validates everywhere" `Slow test_all_platforms_validate_pipe;
    Alcotest.test_case "wordcount validates (rust)" `Slow test_all_platforms_validate_wordcount;
    Alcotest.test_case "wordcount validates (wasm)" `Slow test_wasm_platforms_validate_wordcount;
    Alcotest.test_case "sorting validates" `Slow test_all_platforms_validate_sorting;
    Alcotest.test_case "chain validates" `Slow test_all_platforms_validate_chain;
    Alcotest.test_case "image pipeline on AS" `Quick test_image_pipeline_on_alloystack;
    Alcotest.test_case "kata cold start dominates" `Quick test_kata_cold_start_dominates;
    Alcotest.test_case "AS beats OpenFaaS" `Slow test_alloystack_beats_openfaas;
    Alcotest.test_case "AS-C beats Faasm on chain" `Quick test_alloystack_beats_faasm_on_chain;
    Alcotest.test_case "IFI overhead bounded" `Quick test_ifi_costs_a_little;
    Alcotest.test_case "Fig.14 ablation ordering" `Quick test_ablation_ordering;
    Alcotest.test_case "AS-Py runtime init dominates" `Quick test_python_dominated_by_runtime_init;
    Alcotest.test_case "Fig.17b cpu/memory reduction" `Quick test_cpu_memory_reduction_fig17b;
    Alcotest.test_case "phase totals populated" `Quick test_phase_totals_populated;
    Alcotest.test_case "speedup helper" `Quick test_speedup_helper;
    Alcotest.test_case "Fig.10 cold-start shape" `Quick test_figure10_shape;
    Alcotest.test_case "loadgen light load" `Quick test_loadgen_light_load_no_queueing;
    Alcotest.test_case "loadgen saturation" `Quick test_loadgen_saturation_queues;
    Alcotest.test_case "loadgen contention" `Quick test_loadgen_contention_hurts;
    Alcotest.test_case "loadgen width check" `Quick test_loadgen_width_check;
    Alcotest.test_case "split reads a payload once" `Quick test_split_reads_a_payload_once;
  ]
