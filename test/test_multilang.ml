(* Multi-language integration: the full §7.2 path — bytecode module →
   binary image → AOT → blacklist admission → execution inside
   workflows — plus runtime-profile wiring. *)

open Sim
open Baselines
open Workloads

let test_runtime_override_wavm_faster () =
  (* The same C workload computes ~30% faster under a WAVM profile than
     under Wasmtime (the §8.5 gap is a runtime property, not a platform
     property); WAVM's heavier engine startup is why end-to-end can
     still favour Wasmtime on tiny runs. *)
  let app () = Parallel_sorting.app ~seed:77 ~size:(512 * 1024) ~instances:2 in
  let with_runtime profile =
    As_platform.make
      ~options:
        {
          As_platform.default_options with
          As_platform.language = Alloystack_core.Workflow.C;
          wasm_runtime = Some profile;
        }
      ()
  in
  let compute profile =
    Platform.phase_total
      ((with_runtime profile).Platform.run (app ()))
      Fctx.phase_compute
  in
  let wasmtime = compute Wasm.Runtime.wasmtime in
  let wavm = compute Wasm.Runtime.wavm in
  Alcotest.(check bool) "wavm computes faster" true (Units.( < ) wavm wasmtime);
  let ratio = Units.to_us wasmtime /. Units.to_us wavm in
  Alcotest.(check bool)
    (Printf.sprintf "~1.3x gap (got %.2f)" ratio)
    true
    (ratio > 1.1 && ratio < 1.4)

let test_language_ordering_on_pipe () =
  (* Fig. 11's language ordering at 16MB-ish sizes: C < Rust < Python
     for the transfer phase. *)
  let app = Pipe_app.app ~seed:78 ~size:(4 * 1024 * 1024) in
  let transfer (p : Platform.t) =
    Platform.phase_total (p.Platform.run app) Fctx.phase_transfer
  in
  let rust = transfer As_platform.alloystack in
  let c = transfer As_platform.alloystack_c in
  let py = transfer As_platform.alloystack_py in
  Alcotest.(check bool) "C fastest" true (Units.( < ) c rust);
  Alcotest.(check bool) "Python slowest" true (Units.( > ) py (Units.scale rust 5.0))

let test_compile_app_across_nodes () =
  (* The encoded WASM module itself crosses a WFD boundary in the
     multi-node deployment and still compiles and runs. *)
  let app = Compile_app.app ~n:750 ~seed:5 () in
  let two_nodes = As_platform.make ~options:{ As_platform.default_options with nodes = 2 } () in
  let m = two_nodes.Platform.run app in
  Platform.check_validated m

let test_python_reuse_vs_reinit () =
  (* Sequential Python functions share the interpreter (cheap); parallel
     instances re-init it: a 2-instance stage costs visibly more than a
     2-function chain beyond the first boot. *)
  let chain = Function_chain.app ~seed:6 ~payload:4096 ~length:3 in
  let seq = (As_platform.alloystack_py.Platform.run chain).Platform.e2e in
  let wide = Wordcount.app ~seed:6 ~size:65536 ~instances:3 in
  let par = (As_platform.alloystack_py.Platform.run wide).Platform.e2e in
  (* Both pay one CPython boot (~1.86s); the parallel app pays two extra
     re-inits (~300ms each) on top. *)
  Alcotest.(check bool) "parallel pays re-inits" true
    (Units.( > ) par (Units.add seq (Units.ms 400)))

let suite =
  [
    Alcotest.test_case "wavm override faster" `Quick test_runtime_override_wavm_faster;
    Alcotest.test_case "language ordering on pipe" `Quick test_language_ordering_on_pipe;
    Alcotest.test_case "compile app across nodes" `Quick test_compile_app_across_nodes;
    Alcotest.test_case "python reuse vs re-init" `Quick test_python_reuse_vs_reinit;
  ]
