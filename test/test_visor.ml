(* Tests for as-visor orchestration, admission control and the
   gateway. *)

open Sim
open Alloystack_core

let node ?(instances = 1) ?(language = Workflow.Rust) id =
  { Workflow.node_id = id; language; instances; required_modules = [] }

let counting_kernel counter (ctx : Asstd.ctx) ~instance:_ ~total:_ =
  incr counter;
  Asstd.compute ctx (Units.ms 1)

let single_fn_workflow = Workflow.create_exn ~name:"w" ~nodes:[ node "f" ] ~edges:[]

let test_run_executes_kernels () =
  let count = ref 0 in
  let wf =
    Workflow.create_exn ~name:"w"
      ~nodes:[ node "a"; node ~instances:3 "b" ]
      ~edges:[ ("a", "b") ]
  in
  let bindings =
    [ ("a", Visor.bind (counting_kernel count)); ("b", Visor.bind (counting_kernel count)) ]
  in
  let report = Visor.run ~workflow:wf ~bindings () in
  Alcotest.(check int) "1 + 3 executions" 4 !count;
  Alcotest.(check int) "two stages" 2 (List.length report.Visor.stage_reports);
  Alcotest.(check bool) "e2e past compute" true (Units.( > ) report.Visor.e2e (Units.ms 2))

let test_cold_start_is_1_3ms () =
  let cs = Units.to_ms (Visor.cold_start_only ()) in
  Alcotest.(check bool) (Printf.sprintf "cold start ~1.3ms (got %.2f)" cs) true
    (cs > 1.2 && cs < 1.45)

let test_load_all_cold_start_is_89ms () =
  let features = { Wfd.default_features with Wfd.on_demand = false } in
  let config = { Visor.default_config with Visor.features } in
  let cs = Units.to_ms (Visor.cold_start_only ~config ()) in
  Alcotest.(check bool) (Printf.sprintf "load-all ~89.4ms (got %.2f)" cs) true
    (cs > 87.0 && cs < 92.0)

let test_missing_binding () =
  match Visor.run ~workflow:single_fn_workflow ~bindings:[] () with
  | _ -> Alcotest.fail "missing binding must fail"
  | exception Invalid_argument _ -> ()

let test_admission_rejects_syscall_image () =
  let image =
    Isa.Image.create ~name:"evil" ~toolchain:Isa.Image.Rust_plain_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Syscall; Isa.Inst.Ret ]
  in
  let bindings = [ ("f", Visor.bind ~image (fun _ ~instance:_ ~total:_ -> ())) ] in
  match Visor.run ~workflow:single_fn_workflow ~bindings () with
  | _ -> Alcotest.fail "blacklisted image must be rejected"
  | exception Visor.Admission_failed _ -> ()

let test_admission_accepts_clean_image () =
  let image =
    Isa.Image.create ~name:"good" ~toolchain:Isa.Image.Rust_as_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Call "as_std_open"; Isa.Inst.Ret ]
  in
  let bindings = [ ("f", Visor.bind ~image (fun _ ~instance:_ ~total:_ -> ())) ] in
  let report = Visor.run ~workflow:single_fn_workflow ~bindings () in
  Alcotest.(check bool) "admission time reported" true
    (Units.( > ) report.Visor.admission Units.zero)

let test_stage_parallelism_vs_cores () =
  (* 8 instances of a 10ms function: on 8 cores the stage is ~10ms; on
     1 core it serialises to ~80ms. *)
  let wf = Workflow.create_exn ~name:"w" ~nodes:[ node ~instances:8 "f" ] ~edges:[] in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms 10) in
  let bindings = [ ("f", Visor.bind kernel) ] in
  let wide =
    Visor.run ~config:{ Visor.default_config with Visor.cores = 8 } ~workflow:wf ~bindings ()
  in
  let narrow =
    Visor.run ~config:{ Visor.default_config with Visor.cores = 1 } ~workflow:wf ~bindings ()
  in
  Alcotest.(check bool) "narrow much slower" true
    (Units.( > ) narrow.Visor.e2e (Units.scale wide.Visor.e2e 4.0))

let test_module_reuse_across_functions () =
  (* Fig. 7(c): the second function reuses the module the first one
     loaded — exactly one miss per entry. *)
  let wf = Workflow.chain ~name:"c" 4 in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "x" in
  let bindings =
    List.map (fun (n : Workflow.node) -> (n.Workflow.node_id, Visor.bind kernel)) wf.Workflow.nodes
  in
  let report = Visor.run ~workflow:wf ~bindings () in
  Alcotest.(check int) "one miss for host_stdout" 1 report.Visor.entry_misses;
  Alcotest.(check int) "three fast hits" 3 report.Visor.entry_hits;
  Alcotest.(check (list string)) "only stdio loaded" [ "stdio" ] report.Visor.loaded_modules

let test_report_phase_totals () =
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.in_phase ctx "compute" (fun () -> Asstd.compute ctx (Units.ms 7))
  in
  let report =
    Visor.run ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind kernel) ] ()
  in
  match List.assoc_opt "compute" report.Visor.phase_totals with
  | Some t -> Alcotest.(check bool) "phase recorded" true (Units.( >= ) t (Units.ms 7))
  | None -> Alcotest.fail "missing phase"

let test_wfd_destroyed_after_run () =
  (* Memory accounting resets between runs: peak rss reflects this
     run's footprint only. *)
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asbuffer.with_slot_raw ctx ~slot:"x" (Bytes.make 1_000_000 'a'))
  in
  let r1 = Visor.run ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind kernel) ] () in
  let r2 = Visor.run ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind kernel) ] () in
  Alcotest.(check int) "footprint independent across runs" r1.Visor.peak_rss r2.Visor.peak_rss

let test_no_wfd_leak_on_failure () =
  (* Regression: a terminal function failure must still tear the WFD
     down (run_once reaches Wfd.destroy on every exit path), or a
     long-lived server leaks one WFD per failed request. *)
  let bad_kernel (_ : Asstd.ctx) ~instance:_ ~total:_ = failwith "boom" in
  let before = Wfd.live_count () in
  (match
     Visor.run ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind bad_kernel) ] ()
   with
  | _ -> Alcotest.fail "failing kernel must raise"
  | exception Visor.Function_failed _ -> ());
  Alcotest.(check int) "no live WFD left behind" before (Wfd.live_count ());
  (* Same for a workflow that exhausts workflow-level retries. *)
  let config = { Visor.default_config with Visor.retry = Visor.Retry_workflow 3 } in
  (match
     Visor.run ~config ~workflow:single_fn_workflow
       ~bindings:[ ("f", Visor.bind bad_kernel) ] ()
   with
  | _ -> Alcotest.fail "still failing after retries"
  | exception Visor.Function_failed _ -> ());
  Alcotest.(check int) "no leak across retries" before (Wfd.live_count ())

let test_workflow_retry_counts_failed_attempts () =
  (* Regression: restarts performed during failed workflow attempts
     must survive into the final report instead of being dropped with
     the failed attempt's WFD. *)
  let calls = ref 0 in
  let flaky (_ : Asstd.ctx) ~instance:_ ~total:_ =
    incr calls;
    if !calls <= 2 then failwith "transient"
  in
  let config = { Visor.default_config with Visor.retry = Visor.Retry_workflow 3 } in
  let report =
    Visor.run ~config ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind flaky) ] ()
  in
  Alcotest.(check int) "kernel ran three times" 3 !calls;
  Alcotest.(check int) "both failed attempts counted" 2 report.Visor.retries

let test_workflow_retry_covers_hang () =
  (* Regression: an undetected hang (no watchdog timeout) must be
     retried by Retry_workflow like any other failed attempt. *)
  let plan = Fault.create ~seed:5 () in
  Fault.inject plan ~site:Fault.site_fn_hang (Fault.First 1);
  let config =
    {
      Visor.default_config with
      Visor.fault = Some plan;
      retry = Visor.Retry_workflow 2;
    }
  in
  let report =
    Visor.run ~config ~workflow:single_fn_workflow
      ~bindings:[ ("f", Visor.bind (counting_kernel (ref 0))) ]
      ()
  in
  Alcotest.(check int) "hung attempt counted as retry" 1 report.Visor.retries;
  (* With the hang firing every attempt it still escapes once the
     attempt budget is spent — and without leaking WFDs. *)
  let plan = Fault.create ~seed:5 () in
  Fault.inject plan ~site:Fault.site_fn_hang Fault.Always;
  let config = { config with Visor.fault = Some plan } in
  let before = Wfd.live_count () in
  (match
     Visor.run ~config ~workflow:single_fn_workflow
       ~bindings:[ ("f", Visor.bind (counting_kernel (ref 0))) ]
       ()
   with
  | _ -> Alcotest.fail "always-hanging workflow cannot complete"
  | exception Visor.Function_hung _ -> ());
  Alcotest.(check int) "hung attempts torn down" before (Wfd.live_count ())

let test_backoff_boundaries () =
  (* Attempt numbers at and below 1 are free; the limit clamps exactly
     at the crossing attempt. *)
  let b = Visor.Exponential { base = Units.ms 4; factor = 2.0; limit = Units.ms 8 } in
  Alcotest.(check bool) "attempt 0 free" true
    (Units.equal Units.zero (Visor.backoff_delay b ~attempt:0));
  Alcotest.(check bool) "attempt 1 free" true
    (Units.equal Units.zero (Visor.backoff_delay b ~attempt:1));
  Alcotest.(check bool) "attempt 2 pays base" true
    (Units.equal (Units.ms 4) (Visor.backoff_delay b ~attempt:2));
  Alcotest.(check bool) "attempt 3 hits limit exactly" true
    (Units.equal (Units.ms 8) (Visor.backoff_delay b ~attempt:3));
  Alcotest.(check bool) "attempt 4 stays clamped" true
    (Units.equal (Units.ms 8) (Visor.backoff_delay b ~attempt:4))

let test_gateway_admission_cache_shared () =
  (* The gateway scans an image once; later invocations (any endpoint)
     reuse the cached verdict by content hash. *)
  let image =
    Isa.Image.create ~name:"cached" ~toolchain:Isa.Image.Rust_as_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Call "as_std_open"; Isa.Inst.Ret ]
  in
  let kernel (_ : Asstd.ctx) ~instance:_ ~total:_ = () in
  let g = Gateway.create () in
  Gateway.register g ~endpoint:"e"
    ~workflow:single_fn_workflow
    ~bindings:[ ("f", Visor.bind ~image kernel) ]
    ();
  ignore (Gateway.invoke g ~endpoint:"e");
  ignore (Gateway.invoke g ~endpoint:"e");
  ignore (Gateway.invoke g ~endpoint:"e");
  Alcotest.(check int) "one scan" 1 (Visor.admission_scans (Gateway.admission g));
  Alcotest.(check int) "two cache hits" 2 (Visor.admission_hits (Gateway.admission g))

let test_cpu_quota_stretches () =
  (* 9 resource allocation: a 50% CPU quota roughly doubles the
     compute-bound end-to-end time. *)
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms 40) in
  let bindings = [ ("f", Visor.bind kernel) ] in
  let free = Visor.run ~workflow:single_fn_workflow ~bindings () in
  let capped =
    Visor.run
      ~config:{ Visor.default_config with Visor.cpu_quota = Some 0.5 }
      ~workflow:single_fn_workflow ~bindings ()
  in
  Alcotest.(check bool) "roughly doubled" true
    (Units.( > ) capped.Visor.e2e (Units.scale free.Visor.e2e 1.8)
    && Units.( < ) capped.Visor.e2e (Units.scale free.Visor.e2e 2.2))

(* --- gateway --- *)

let register_demo gateway endpoint =
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "served" in
  Gateway.register gateway ~endpoint ~workflow:single_fn_workflow
    ~bindings:[ ("f", Visor.bind kernel) ]
    ()

let test_gateway_invoke () =
  let g = Gateway.create () in
  register_demo g "demo";
  Alcotest.(check (list string)) "endpoints" [ "demo" ] (Gateway.endpoints g);
  let report = Gateway.invoke g ~endpoint:"demo" in
  Alcotest.(check string) "ran" "served\n" report.Visor.stdout;
  Alcotest.(check int) "counted" 1 (Gateway.invocations g);
  match Gateway.invoke g ~endpoint:"zz" with
  | _ -> Alcotest.fail "unknown endpoint"
  | exception Not_found -> ()

let test_gateway_duplicate_endpoint () =
  let g = Gateway.create () in
  register_demo g "demo";
  match register_demo g "demo" with
  | () -> Alcotest.fail "duplicate must fail"
  | exception Invalid_argument _ -> ()

let test_gateway_round_robin () =
  let g =
    Gateway.create
      ~nodes:[ { Gateway.node_name = "n0"; cores = 4 }; { Gateway.node_name = "n1"; cores = 4 } ]
      ()
  in
  register_demo g "demo";
  ignore (Gateway.invoke g ~endpoint:"demo");
  Alcotest.(check (option string)) "first node" (Some "n0") (Gateway.last_node g);
  ignore (Gateway.invoke g ~endpoint:"demo");
  Alcotest.(check (option string)) "second node" (Some "n1") (Gateway.last_node g);
  ignore (Gateway.invoke g ~endpoint:"demo");
  Alcotest.(check (option string)) "wraps" (Some "n0") (Gateway.last_node g)

let test_gateway_http () =
  let g = Gateway.create () in
  register_demo g "demo";
  let resp =
    Gateway.handle_http g (Netsim.Http.request ~meth:"POST" ~path:"/wf/demo" ())
  in
  Alcotest.(check int) "200" 200 resp.Netsim.Http.status;
  let json = Jsonlite.parse resp.Netsim.Http.resp_body in
  Alcotest.(check string) "stdout in body" "served\n"
    (Jsonlite.member_string "stdout" json);
  let missing =
    Gateway.handle_http g (Netsim.Http.request ~meth:"POST" ~path:"/wf/zz" ())
  in
  Alcotest.(check int) "404" 404 missing.Netsim.Http.status;
  let health = Gateway.handle_http g (Netsim.Http.request ~meth:"GET" ~path:"/healthz" ()) in
  Alcotest.(check int) "healthz" 200 health.Netsim.Http.status;
  let bad = Gateway.handle_http g (Netsim.Http.request ~meth:"GET" ~path:"/wf/demo" ()) in
  Alcotest.(check int) "GET not allowed" 404 bad.Netsim.Http.status;
  (* Stdout with UTF-8 and a control byte still makes a JSON body. *)
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "caf\xc3\xa9\x01" in
  Gateway.register g ~endpoint:"utf" ~workflow:single_fn_workflow
    ~bindings:[ ("f", Visor.bind kernel) ]
    ();
  let resp = Gateway.handle_http g (Netsim.Http.request ~meth:"POST" ~path:"/wf/utf" ()) in
  Alcotest.(check int) "200 with raw stdout" 200 resp.Netsim.Http.status;
  match Jsonlite.parse_result resp.Netsim.Http.resp_body with
  | Ok json ->
      Alcotest.(check string) "stdout bytes kept" "caf\xc3\xa9\x01\n"
        (Jsonlite.member_string "stdout" json)
  | Error e -> Alcotest.failf "body is not JSON (%s): %s" e resp.Netsim.Http.resp_body

let test_gateway_register_json () =
  let g = Gateway.create () in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "j" in
  let config_json =
    {| { "workflow": "jwf",
         "functions": [ { "name": "a", "modules": ["mm"] },
                        { "name": "b", "instances": 2 } ],
         "edges": [ { "from": "a", "to": "b" } ] } |}
  in
  (match
     Gateway.register_json g ~endpoint:"jwf" ~config_json
       ~bindings:[ ("a", Visor.bind kernel); ("b", Visor.bind kernel) ]
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let report = Gateway.invoke g ~endpoint:"jwf" in
  Alcotest.(check string) "three prints" "j\nj\nj\n" report.Visor.stdout;
  match
    Gateway.register_json g ~endpoint:"bad" ~config_json:"{oops" ~bindings:[] ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad json must fail"

(* --- elasticity (9) --- *)

let busy_workflow =
  Workflow.create_exn ~name:"w"
    ~nodes:[ { (node "f") with Workflow.instances = 4 } ]
    ~edges:[]

let register_busy g =
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms 10) in
  Gateway.register g ~endpoint:"busy" ~workflow:busy_workflow
    ~bindings:[ ("f", Visor.bind kernel) ]
    ()

let test_burst_within_capacity () =
  let g = Gateway.create ~nodes:[ { Gateway.node_name = "n0"; cores = 64 } ] () in
  register_busy g;
  let r = Gateway.invoke_burst g ~endpoint:"busy" ~count:4 in
  Alcotest.(check int) "nothing queued" 0 r.Gateway.queued;
  Alcotest.(check int) "all ran" 4 (List.length r.Gateway.latencies)

let test_burst_queues_past_capacity () =
  (* 8-core node, workflow width 4 -> capacity 2 concurrent. *)
  let g = Gateway.create ~nodes:[ { Gateway.node_name = "n0"; cores = 8 } ] () in
  register_busy g;
  let r = Gateway.invoke_burst g ~endpoint:"busy" ~count:6 in
  Alcotest.(check int) "four queued" 4 r.Gateway.queued;
  let sorted = List.sort Units.compare r.Gateway.latencies in
  Alcotest.(check bool) "queueing visible in p99" true
    (Units.( > ) r.Gateway.p99 (List.hd sorted))

let test_burst_spreads_across_nodes () =
  let g =
    Gateway.create
      ~nodes:
        [ { Gateway.node_name = "n0"; cores = 8 }; { Gateway.node_name = "n1"; cores = 8 } ]
      ()
  in
  register_busy g;
  let r = Gateway.invoke_burst g ~endpoint:"busy" ~count:4 in
  Alcotest.(check (list (pair string int))) "balanced placement"
    [ ("n0", 2); ("n1", 2) ]
    r.Gateway.per_node;
  Alcotest.(check int) "two nodes absorb the burst" 0 r.Gateway.queued

let test_run_emits_trace () =
  Sim.Trace.clear Sim.Trace.global;
  Sim.Trace.set_enabled Sim.Trace.global true;
  Fun.protect
    ~finally:(fun () ->
      Sim.Trace.set_enabled Sim.Trace.global false;
      Sim.Trace.clear Sim.Trace.global)
    (fun () ->
      let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "x" in
      ignore (Visor.run ~workflow:single_fn_workflow ~bindings:[ ("f", Visor.bind kernel) ] ());
      let labels =
        List.map (fun (e : Sim.Trace.event) -> e.Sim.Trace.label)
          (Sim.Trace.events Sim.Trace.global)
      in
      List.iter
        (fun wanted ->
          if not (List.mem wanted labels) then Alcotest.fail ("missing event " ^ wanted))
        [ "wfd-created"; "entry-miss"; "module-loaded"; "stage-done"; "wfd-destroyed" ])

(* Minor words of one tracing-off [Visor.run] of an 8-function chain,
   after warm-up.  Every trace call site on the run path checks
   [Trace.enabled] first: a disabled [Trace.recordf] still allocates
   for its arguments, and the run passes 10 of them (wfd-created, one
   stage-done per stage, wfd-destroyed) — about 3 860 words with the
   checks, about 4 230 without. *)
let test_untraced_run_allocation () =
  let wf = Workflow.chain ~name:"alloc" 8 in
  let bindings =
    List.map
      (fun (n : Workflow.node) ->
        (n.Workflow.node_id, Visor.bind (fun ctx ~instance:_ ~total:_ -> Asstd.compute ctx (Units.ms 1))))
      wf.Workflow.nodes
  in
  Alcotest.(check bool) "tracing is off" false (Trace.enabled (Trace.current ()));
  let run () = ignore (Sys.opaque_identity (Visor.run ~workflow:wf ~bindings ())) in
  for _ = 1 to 5 do
    run ()
  done;
  let n = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    run ()
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_run >= 4000.0 then
    Alcotest.failf "an untraced 8-function run allocates %.0f minor words (bound 4000)" per_run

let suite =
  [
    Alcotest.test_case "run emits trace" `Quick test_run_emits_trace;
    Alcotest.test_case "run executes kernels" `Quick test_run_executes_kernels;
    Alcotest.test_case "cold start ~1.3ms (Fig.10)" `Quick test_cold_start_is_1_3ms;
    Alcotest.test_case "load-all ~89.4ms (Fig.10)" `Quick test_load_all_cold_start_is_89ms;
    Alcotest.test_case "missing binding" `Quick test_missing_binding;
    Alcotest.test_case "admission rejects syscall" `Quick test_admission_rejects_syscall_image;
    Alcotest.test_case "admission accepts clean" `Quick test_admission_accepts_clean_image;
    Alcotest.test_case "stage parallelism vs cores" `Quick test_stage_parallelism_vs_cores;
    Alcotest.test_case "module reuse across functions" `Quick test_module_reuse_across_functions;
    Alcotest.test_case "phase totals" `Quick test_report_phase_totals;
    Alcotest.test_case "wfd destroyed after run" `Quick test_wfd_destroyed_after_run;
    Alcotest.test_case "no wfd leak on failure" `Quick test_no_wfd_leak_on_failure;
    Alcotest.test_case "workflow retry counts failed attempts" `Quick
      test_workflow_retry_counts_failed_attempts;
    Alcotest.test_case "workflow retry covers hang" `Quick test_workflow_retry_covers_hang;
    Alcotest.test_case "backoff boundaries" `Quick test_backoff_boundaries;
    Alcotest.test_case "gateway admission cache shared" `Quick
      test_gateway_admission_cache_shared;
    Alcotest.test_case "cpu quota stretches e2e" `Quick test_cpu_quota_stretches;
    Alcotest.test_case "gateway invoke" `Quick test_gateway_invoke;
    Alcotest.test_case "gateway duplicate endpoint" `Quick test_gateway_duplicate_endpoint;
    Alcotest.test_case "gateway round robin" `Quick test_gateway_round_robin;
    Alcotest.test_case "gateway http" `Quick test_gateway_http;
    Alcotest.test_case "gateway json registration" `Quick test_gateway_register_json;
    Alcotest.test_case "burst within capacity" `Quick test_burst_within_capacity;
    Alcotest.test_case "burst queues past capacity" `Quick test_burst_queues_past_capacity;
    Alcotest.test_case "burst spreads across nodes" `Quick test_burst_spreads_across_nodes;
    Alcotest.test_case "untraced run allocates < 4000 words" `Quick test_untraced_run_allocation;
  ]
