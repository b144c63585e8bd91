(* Tests for Wasm.Compile_cache: content-hash LRU memoization of AOT
   compilation, commit-on-success under injected loader faults, and the
   invariant that the cache never changes virtual time. *)

open Sim
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

let test_hit_miss () =
  let cache = Wasm.Compile_cache.create () in
  let compiles = ref 0 in
  let compile () =
    incr compiles;
    Wasm.Aot.compile Wasm.Builder.sum_to_n
  in
  let c1 = Wasm.Compile_cache.find_or_compile cache Wasm.Builder.sum_to_n ~compile in
  let c2 = Wasm.Compile_cache.find_or_compile cache Wasm.Builder.sum_to_n ~compile in
  Alcotest.(check int) "compiled once" 1 !compiles;
  Alcotest.(check bool) "same compilation shared" true (c1 == c2);
  Alcotest.(check int) "one miss" 1 (Wasm.Compile_cache.miss_count cache);
  Alcotest.(check int) "one hit" 1 (Wasm.Compile_cache.hit_count cache);
  Alcotest.(check int) "one entry" 1 (Wasm.Compile_cache.length cache);
  (* The key is the content hash: a structurally identical module hits
     regardless of provenance. *)
  Alcotest.(check string) "hash stable"
    (Wasm.Compile_cache.hash_module Wasm.Builder.sum_to_n)
    (Wasm.Compile_cache.hash_module Wasm.Builder.sum_to_n);
  Alcotest.(check bool) "distinct modules hash apart" true
    (Wasm.Compile_cache.hash_module Wasm.Builder.sum_to_n
    <> Wasm.Compile_cache.hash_module Wasm.Builder.fib)

let test_lru_eviction () =
  let cache = Wasm.Compile_cache.create ~capacity:2 () in
  let get m =
    ignore
      (Wasm.Compile_cache.find_or_compile cache m ~compile:(fun () ->
           Wasm.Aot.compile m))
  in
  get Wasm.Builder.sum_to_n;
  get Wasm.Builder.fib;
  (* Touch sum_to_n so fib becomes the LRU entry. *)
  get Wasm.Builder.sum_to_n;
  get Wasm.Builder.memory_fill;
  Alcotest.(check int) "one eviction" 1 (Wasm.Compile_cache.eviction_count cache);
  Alcotest.(check int) "capacity held" 2 (Wasm.Compile_cache.length cache);
  let misses = Wasm.Compile_cache.miss_count cache in
  get Wasm.Builder.sum_to_n;
  Alcotest.(check int) "recently-used entry survived" misses
    (Wasm.Compile_cache.miss_count cache);
  get Wasm.Builder.fib;
  Alcotest.(check int) "LRU entry was the one evicted" (misses + 1)
    (Wasm.Compile_cache.miss_count cache);
  match Wasm.Compile_cache.create ~capacity:0 () with
  | _ -> Alcotest.fail "zero capacity must be rejected"
  | exception Invalid_argument _ -> ()

let test_commit_on_success () =
  let cache = Wasm.Compile_cache.create () in
  (match
     Wasm.Compile_cache.find_or_compile cache Wasm.Builder.sum_to_n
       ~compile:(fun () -> failwith "transient compile failure")
   with
  | _ -> Alcotest.fail "expected compile failure to propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "failed fill left no entry" 0
    (Wasm.Compile_cache.length cache);
  (* The retry compiles cleanly and commits. *)
  ignore
    (Wasm.Compile_cache.find_or_compile cache Wasm.Builder.sum_to_n
       ~compile:(fun () -> Wasm.Aot.compile Wasm.Builder.sum_to_n));
  Alcotest.(check int) "retry committed" 1 (Wasm.Compile_cache.length cache)

(* Satellite (f): a transient loader fault during the cache-fill path
   must not poison the cache — the recovery recompiles, the good result
   is committed, and later loads hit with unchanged virtual time. *)
let test_loader_fault_no_poison () =
  let m = Wasm.Builder.sum_to_n in
  let trace = Trace.create () in
  Trace.set_enabled trace true;
  let plan = Fault.create ~trace ~seed:42 () in
  Fault.inject plan ~site:Fault.site_loader_load (Fault.Nth 1);
  let cache = Wasm.Compile_cache.create () in
  let clock1 = Clock.create () in
  ignore (Wasm.Runtime.load ~cache ~fault:plan Wasm.Runtime.wasmtime ~clock:clock1 m);
  Alcotest.(check int) "fault fired" 1
    (Fault.fired plan ~site:Fault.site_loader_load);
  (match Trace.filter trace ~category:"fault" with
  | [ _injected; recovered ] ->
      Alcotest.(check string) "recovery recorded"
        "recovered: slow-path reload of wasm module sum_to_n"
        recovered.Trace.detail
  | events ->
      Alcotest.failf "expected injection + recovery, got %d events"
        (List.length events));
  (* The fired fault charged one extra engine restart. *)
  let clean_clock = Clock.create () in
  ignore (Wasm.Runtime.load Wasm.Runtime.wasmtime ~clock:clean_clock m);
  Alcotest.check check_time "recovery charged one extra startup"
    (Units.add (Clock.now clean_clock) Wasm.Runtime.wasmtime.Wasm.Runtime.startup)
    (Clock.now clock1);
  (* Only the recovered (good) compilation was committed. *)
  Alcotest.(check int) "one good entry" 1 (Wasm.Compile_cache.length cache);
  Alcotest.(check int) "no hit yet" 0 (Wasm.Compile_cache.hit_count cache);
  (* The second load hits the cache and costs exactly what a fault-free
     uncached load costs: virtual time never sees the cache. *)
  let clock2 = Clock.create () in
  ignore (Wasm.Runtime.load ~cache ~fault:plan Wasm.Runtime.wasmtime ~clock:clock2 m);
  Alcotest.(check int) "second load hit" 1 (Wasm.Compile_cache.hit_count cache);
  Alcotest.check check_time "hit charges full virtual cost"
    (Clock.now clean_clock) (Clock.now clock2)

(* End-to-end virtual-time invariance: the same workflow reports the
   same e2e time with no cache, a cold cache and a warm cache. *)
let wasm_wf =
  Workflow.create_exn ~name:"wasm-load"
    ~nodes:
      [
        {
          Workflow.node_id = "f";
          language = Workflow.Rust;
          instances = 1;
          required_modules = [];
        };
      ]
    ~edges:[]

let wasm_bindings =
  [
    ( "f",
      Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
          let loaded = Asstd.load_wasm ctx Wasm.Runtime.wasmtime Wasm.Builder.sum_to_n in
          let clock = ctx.Asstd.thread.Wfd.clock in
          let inst =
            Wasm.Runtime.instantiate loaded ~clock ~system:Wasm.Wasi.null_system
          in
          let r = Wasm.Runtime.run loaded ~clock ~instance:inst "sum" [| 100L |] in
          assert (r = 5050L)) );
  ]

let run_once config =
  let r = Visor.run ~config ~workflow:wasm_wf ~bindings:wasm_bindings () in
  r.Visor.e2e

let test_virtual_time_invariance () =
  let base = Visor.default_config in
  let uncached = run_once base in
  let cache = Wasm.Compile_cache.create () in
  let cold = run_once { base with Visor.code_cache = Some cache } in
  let warm = run_once { base with Visor.code_cache = Some cache } in
  Alcotest.(check int) "cache exercised: one miss" 1
    (Wasm.Compile_cache.miss_count cache);
  Alcotest.(check int) "cache exercised: one hit" 1
    (Wasm.Compile_cache.hit_count cache);
  Alcotest.check check_time "cold run identical to uncached" uncached cold;
  Alcotest.check check_time "warm run identical to uncached" uncached warm

(* Acceptance: warm clones of a server template recompile nothing —
   the shared cache's miss count stays at the number of distinct
   modules no matter how many requests are served. *)
let test_warm_clone_zero_recompiles () =
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"e" ~workflow:wasm_wf
    ~bindings:wasm_bindings ();
  let n = 5 in
  let requests =
    List.init n (fun i ->
        { Visor.Server.endpoint = "e"; arrival = Units.ms (i * 50) })
  in
  let _, s = Visor.Server.serve server requests in
  let cache = Visor.Server.code_cache server in
  Alcotest.(check int) "all served" n s.Visor.Server.sm_completed;
  Alcotest.(check bool) "warm clones happened" true
    (s.Visor.Server.sm_warm_starts > 0);
  Alcotest.(check int) "one compile for the whole run" 1
    (Wasm.Compile_cache.miss_count cache);
  Alcotest.(check int) "every other load hit" (n - 1)
    (Wasm.Compile_cache.hit_count cache);
  Visor.Server.shutdown server

let suite =
  [
    Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "commit on success" `Quick test_commit_on_success;
    Alcotest.test_case "loader fault does not poison" `Quick
      test_loader_fault_no_poison;
    Alcotest.test_case "virtual-time invariance" `Quick
      test_virtual_time_invariance;
    Alcotest.test_case "warm clones recompile nothing" `Quick
      test_warm_clone_zero_recompiles;
  ]
