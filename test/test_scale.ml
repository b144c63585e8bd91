(* Tier-1 scale lock-in: a 50k-request warm serve streamed through the
   server must complete with zero failures, bounded virtual memory and
   a byte-identical response stream whatever the host domain count —
   the contract the 10^5-request bench leg relies on. *)

open Sim
open Alloystack_core

let count = 50_000
let qps = 700.0
let seed = 7

(* Same endpoints and the same seeded draw sequence as
   [Test_par.requests_for], but streamed instead of materialised. *)
let stream () =
  let eps =
    Array.of_list (List.map (fun (e, _, _) -> e) Test_par.endpoints_spec)
  in
  let next = Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:eps ~count () in
  fun () ->
    match next () with
    | None -> None
    | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival }

(* The 50k stream folded into a fingerprint of every response, never
   holding the responses themselves. *)
let serve_scale () =
  let server =
    Visor.Server.create ~sample_every:64 ~sample_seed:seed ()
  in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    Test_par.endpoints_spec;
  let buf, s =
    Visor.Server.serve_fold server (stream ()) ~init:(Buffer.create 4096)
      ~f:(fun buf p ->
        Buffer.add_string buf (Test_par.response_line p);
        Buffer.add_char buf ';';
        buf)
  in
  Visor.Server.shutdown server;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), s)

let test_scale_50k () =
  let live0 = Wfd.live_count () in
  let ((_, s1) as r1) = Test_par.with_domains 1 (fun () -> serve_scale ()) in
  Alcotest.(check int) "all completed" count s1.Visor.Server.sm_completed;
  Alcotest.(check int) "zero failures" 0 s1.Visor.Server.sm_failed;
  (* Warm pool does its job: one cold boot per endpoint, everything
     else clones a template. *)
  Alcotest.(check int) "cold boots = endpoints" 3 s1.Visor.Server.sm_cold_starts;
  Alcotest.(check int) "warm rest" (count - 3) s1.Visor.Server.sm_warm_starts;
  (* Bounded virtual memory: peak machine RSS reflects the in-flight
     window, not the full request count.  16 GiB is ~2x the observed
     peak; a linear leak over 50k requests would blow far past it. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak rss bounded (%d)" s1.Visor.Server.sm_machine_peak_rss)
    true
    (s1.Visor.Server.sm_machine_peak_rss < 16 * 1024 * 1024 * 1024);
  (* In-flight stays at the queueing equilibrium, far below n. *)
  Alcotest.(check bool)
    (Printf.sprintf "inflight bounded (%d)" s1.Visor.Server.sm_max_inflight)
    true
    (s1.Visor.Server.sm_max_inflight < 1_000);
  Alcotest.(check int) "no WFD leak" live0 (Wfd.live_count ());
  (* The same stream on a 4-domain pool replays byte-identically. *)
  let ((_, s4) as r4) = Test_par.with_domains 4 (fun () -> serve_scale ()) in
  Alcotest.(check string) "responses identical at 1 vs 4 domains" (fst r1) (fst r4);
  Alcotest.(check string) "summary identical at 1 vs 4 domains"
    (Test_par.summary r1) (Test_par.summary r4);
  Alcotest.(check bool) "summary records equal" true (s1 = s4);
  Alcotest.(check int) "no WFD leak after parallel run" live0 (Wfd.live_count ())

let test_fold_matches_serve () =
  (* serve_fold over the generator, at every window size, == serve over
     the materialised list: the same responses in the same order and the
     same summary record.  [serve] runs at the default window (64), so
     2048, the default before it, is among the sizes. *)
  let requests = Test_par.requests_for ~seed ~count:300 in
  let with_server f =
    let server = Visor.Server.create () in
    List.iter
      (fun (endpoint, workflow, bindings) ->
        Visor.Server.register server ~endpoint ~workflow ~bindings ())
      Test_par.endpoints_spec;
    let r = f server in
    Visor.Server.shutdown server;
    r
  in
  let eps = Array.of_list (List.map (fun (e, _, _) -> e) Test_par.endpoints_spec) in
  let want = with_server (fun server -> Visor.Server.serve server requests) in
  List.iter
    (fun window ->
      let next = Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:eps ~count:300 () in
      let rev, summary =
        with_server (fun server ->
            Visor.Server.serve_fold server ~window
              (fun () ->
                match next () with
                | None -> None
                | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
              ~init:[] ~f:(fun acc r -> r :: acc))
      in
      Alcotest.(check string)
        (Printf.sprintf "window %d responses == serve" window)
        (Test_par.fingerprint want)
        (Test_par.fingerprint (List.rev rev, summary));
      Alcotest.(check bool)
        (Printf.sprintf "window %d summary == serve" window)
        true (summary = snd want))
    [ 1; 17; 300; 2048; 4096 ]

(* --- The failure path at every window and domain count -------------- *)

(* A three-stage workflow (one Rust function, three Rust instances, one
   Python function) next to an endpoint whose image makes a raw syscall
   and so fails admission. *)
let chaos_endpoints =
  let node ?(instances = 1) ?(language = Workflow.Rust) id =
    { Workflow.node_id = id; language; instances; required_modules = [] }
  in
  let compute ms =
    Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ -> Asstd.compute ctx (Units.ms ms))
  in
  let evil =
    Isa.Image.create ~name:"evil" ~toolchain:Isa.Image.Rust_plain_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Syscall; Isa.Inst.Ret ]
  in
  [
    ( "flow",
      Workflow.create_exn ~name:"flow"
        ~nodes:[ node "a"; node ~instances:3 "b"; node ~language:Workflow.Python "c" ]
        ~edges:[ ("a", "b"); ("b", "c") ],
      [ ("a", compute 2); ("b", compute 5); ("c", compute 3) ] );
    ( "evil",
      Workflow.create_exn ~name:"evil" ~nodes:[ node "f" ] ~edges:[],
      [ ("f", Visor.bind ~image:evil (fun _ ~instance:_ ~total:_ -> ())) ] );
  ]

(* 160 requests on 4 cores under a seeded crash-and-hang plan with
   workflow retries, spans, trace and telemetry on; returns the
   responses, the summary and every export.  The cores fall behind at
   150 qps, so about a hundred requests are in flight at once.  Each run
   is on a fresh server, which numbers its WFDs from 1, so the trace
   exports compare byte for byte. *)
let serve_chaos ~window =
  Test_par.reset_observability ();
  Span.set_enabled Span.global true;
  Trace.set_enabled Trace.global true;
  let plan = Fault.create ~seed:41 () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.Probability 0.05);
  Fault.inject plan ~site:Fault.site_fn_hang (Fault.Probability 0.03);
  let config =
    {
      Visor.default_config with
      Visor.cores = 4;
      fault = Some plan;
      retry = Visor.Retry_workflow 3;
    }
  in
  let server = Visor.Server.create ~config () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    chaos_endpoints;
  Visor.Server.enable_telemetry server
    ~slos:[ Slo.spec ~name:"flow40" ~latency:(Units.ms 40) ~objective:0.99 () ]
    ();
  let next =
    Baselines.Loadgen.request_stream ~seed:13 ~qps:150.0
      ~endpoints:[| "flow"; "flow"; "flow"; "evil" |] ~count:160 ()
  in
  let rev, summary =
    Visor.Server.serve_fold server ~window
      (fun () ->
        match next () with
        | None -> None
        | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
      ~init:[] ~f:(fun acc r -> r :: acc)
  in
  let exports =
    [
      ("trace json", Obs.trace_json_string ());
      ("trace dump", Trace.dump Trace.global);
      ("metrics json", Obs.metrics_json_string ());
      ("prometheus", Obs.prometheus_string ());
      ( "telemetry csv",
        match Visor.Server.telemetry server with
        | Some ts -> Timeseries.to_csv ts
        | None -> "" );
    ]
  in
  let dropped = Trace.dropped Trace.global in
  Span.set_enabled Span.global false;
  Trace.set_enabled Trace.global false;
  Visor.Server.shutdown server;
  Test_par.reset_observability ();
  (List.rev rev, summary, exports, dropped)

let test_failure_path_every_window () =
  let live0 = Wfd.live_count () in
  let want, want_s, want_exports, dropped =
    Test_par.with_domains 1 (fun () -> serve_chaos ~window:2048)
  in
  Alcotest.(check int) "trace ring kept every event" 0 dropped;
  (* The counts the workload produced when this test was written: a
     change that moves every window and domain count the same way
     fails here. *)
  Alcotest.(check int) "completed" 124 want_s.Visor.Server.sm_completed;
  Alcotest.(check int) "failed" 36 want_s.Visor.Server.sm_failed;
  Alcotest.(check int) "warm starts" 188 want_s.Visor.Server.sm_warm_starts;
  Alcotest.(check int) "cold starts" 1 want_s.Visor.Server.sm_cold_starts;
  List.iter
    (fun (domains, window) ->
      let got, got_s, got_exports, _ =
        Test_par.with_domains domains (fun () -> serve_chaos ~window)
      in
      let at = Printf.sprintf "window %d, %d domains" window domains in
      Alcotest.(check string) (at ^ ": responses")
        (Test_par.fingerprint (want, want_s))
        (Test_par.fingerprint (got, got_s));
      Alcotest.(check bool) (at ^ ": summary") true (got_s = want_s);
      List.iter2
        (fun (name, w) (_, g) -> Alcotest.(check string) (at ^ ": " ^ name) w g)
        want_exports got_exports)
    [ (1, 1); (1, 17); (1, 64); (2, 1); (2, 17); (2, 64); (2, 2048) ];
  Alcotest.(check int) "no WFD leak" live0 (Wfd.live_count ())

let suite =
  [
    Alcotest.test_case "50k warm serve: complete, bounded, identical across domains"
      `Slow test_scale_50k;
    Alcotest.test_case "serve_fold == serve at every window" `Quick
      test_fold_matches_serve;
    Alcotest.test_case "failure path and exports identical at every window and domain count"
      `Quick test_failure_path_every_window;
  ]
