(* Tests for Visor.Server: the warm template pool, admission cache,
   concurrent serving over shared cores, LRU eviction and WFD
   hygiene. *)

open Sim
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
  { Workflow.node_id = id; language; instances; required_modules = modules }

let compute_wf ms =
  Workflow.create_exn ~name:(Printf.sprintf "compute%d" ms)
    ~nodes:[ node "f" ] ~edges:[]

let compute_bindings ms =
  [ ("f", Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
         Asstd.compute ctx (Units.ms ms))) ]

let req ?(endpoint = "e") at_ms = { Visor.Server.endpoint; arrival = Units.ms at_ms }

let serve_simple ?config ?pool_mem_cap ?warm ~requests () =
  let server = Visor.Server.create ?config ?pool_mem_cap ?warm () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 10)
    ~bindings:(compute_bindings 10) ();
  let r = Visor.Server.serve server requests in
  Visor.Server.shutdown server;
  r

let test_warm_start_beats_cold () =
  (* One prewarmed request vs one cold request: the template clone path
     must be strictly cheaper end to end. *)
  let warm_server = Visor.Server.create () in
  Visor.Server.register warm_server ~endpoint:"e" ~workflow:(compute_wf 10)
    ~bindings:(compute_bindings 10) ();
  (match Visor.Server.prewarm warm_server ~endpoint:"e" with
  | Some t -> Alcotest.(check bool) "template build takes time" true (Units.( > ) t Units.zero)
  | None -> Alcotest.fail "prewarm must install a template");
  let warm = Visor.Server.serve warm_server [ req 0 ] in
  Visor.Server.shutdown warm_server;
  let cold = serve_simple ~warm:false ~requests:[ req 0 ] () in
  let latency = function
    | [ (resp : Visor.Server.response) ], _ -> resp.Visor.Server.r_latency
    | _ -> Alcotest.fail "expected one response"
  in
  Alcotest.(check int) "warm start" 1 (snd warm).Visor.Server.sm_warm_starts;
  Alcotest.(check int) "cold start" 1 (snd cold).Visor.Server.sm_cold_starts;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%s) strictly below cold (%s)"
       (Units.to_string (latency warm))
       (Units.to_string (latency cold)))
    true
    (Units.( < ) (latency warm) (latency cold))

let test_first_request_seeds_pool () =
  (* Without an explicit prewarm, the first (cold) request installs the
     template so the rest of the burst starts warm. *)
  let _, s = serve_simple ~requests:(List.init 5 (fun i -> req (i * 40))) () in
  Alcotest.(check int) "one cold" 1 s.Visor.Server.sm_cold_starts;
  Alcotest.(check int) "rest warm" 4 s.Visor.Server.sm_warm_starts

let test_sustains_32_inflight () =
  (* An open-loop burst of 40 simultaneous arrivals: all are admitted
     and executing concurrently before the first completes. *)
  let _, s = serve_simple ~requests:(List.init 40 (fun _ -> req 0)) () in
  Alcotest.(check int) "all completed" 40 s.Visor.Server.sm_completed;
  Alcotest.(check bool)
    (Printf.sprintf "held >= 32 in flight (got %d)" s.Visor.Server.sm_max_inflight)
    true
    (s.Visor.Server.sm_max_inflight >= 32)

let test_stages_share_cores () =
  (* Two single-function 10ms workflows on a 1-core machine serialise;
     on 2 cores they overlap.  The shared scheduler pool is what makes
     in-flight workflows contend. *)
  let run cores =
    let config = { Visor.default_config with Visor.cores } in
    let _, s = serve_simple ~config ~requests:[ req 0; req 0 ] () in
    s.Visor.Server.sm_duration
  in
  let serial = run 1 and parallel = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "1 core (%s) ~2x of 2 cores (%s)" (Units.to_string serial)
       (Units.to_string parallel))
    true
    (Units.( >= ) serial (Units.add parallel (Units.ms 9)))

let test_lru_eviction_under_cap () =
  (* Cap the pool below two templates: warming a second endpoint must
     evict the least-recently-used first one. *)
  let probe = Visor.Server.create () in
  Visor.Server.register probe ~endpoint:"a" ~workflow:(compute_wf 1)
    ~bindings:(compute_bindings 1) ();
  ignore (Visor.Server.prewarm probe ~endpoint:"a");
  let one_template = Visor.Server.pool_rss probe in
  Visor.Server.shutdown probe;
  Alcotest.(check bool) "template has measurable rss" true (one_template > 0);
  let server = Visor.Server.create ~pool_mem_cap:(one_template * 3 / 2) () in
  List.iter
    (fun ep ->
      Visor.Server.register server ~endpoint:ep ~workflow:(compute_wf 1)
        ~bindings:(compute_bindings 1) ())
    [ "a"; "b" ];
  ignore (Visor.Server.prewarm server ~endpoint:"a");
  Alcotest.(check int) "one pooled" 1 (Visor.Server.pool_size server);
  ignore (Visor.Server.prewarm server ~endpoint:"b");
  Alcotest.(check int) "still one pooled" 1 (Visor.Server.pool_size server);
  Alcotest.(check int) "a evicted" 1 (Visor.Server.evictions server);
  Alcotest.(check bool) "pool stays under cap" true
    (Visor.Server.pool_rss server <= one_template * 3 / 2);
  (* Serving endpoint a again boots cold (its template was evicted). *)
  let _, s = Visor.Server.serve server [ req ~endpoint:"a" 0 ] in
  Alcotest.(check int) "evicted endpoint boots cold" 1 s.Visor.Server.sm_cold_starts;
  (* A warm request planned against a, then b's cold boot evicting a
     in the same window: a's pool is retired, so the warm request's
     WFD is destroyed rather than pooled and counts no recycle. *)
  Visor.Server.enable_telemetry server ();
  let live0 = Wfd.live_count () in
  let evicted0 = Visor.Server.evictions server in
  let _, s = Visor.Server.serve server [ req ~endpoint:"a" 0; req ~endpoint:"b" 0 ] in
  Alcotest.(check int) "a served warm" 1 s.Visor.Server.sm_warm_starts;
  Alcotest.(check int) "b evicted a" (evicted0 + 1) (Visor.Server.evictions server);
  let recycled =
    match Visor.Server.telemetry server with
    | Some ts -> Timeseries.value ts (Timeseries.counter ts "serve.recycle_releases") 0
    | None -> Alcotest.fail "telemetry enabled"
  in
  Alcotest.(check (float 0.0)) "no recycle into a retired pool" 0.0 recycled;
  Alcotest.(check int) "only b's template replaces a's" live0 (Wfd.live_count ());
  Visor.Server.shutdown server

let test_admission_cache_across_requests () =
  let image =
    Isa.Image.create ~name:"img" ~toolchain:Isa.Image.Rust_as_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Call "as_std_open"; Isa.Inst.Ret ]
  in
  let bindings =
    [ ("f", Visor.bind ~image (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
           Asstd.compute ctx (Units.ms 1))) ]
  in
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1) ~bindings ();
  let _, s = Visor.Server.serve server (List.init 6 (fun i -> req (i * 5))) in
  Visor.Server.shutdown server;
  Alcotest.(check int) "all served" 6 s.Visor.Server.sm_completed;
  Alcotest.(check int) "image scanned once" 1 s.Visor.Server.sm_adm_scans;
  Alcotest.(check int) "five cache hits" 5 s.Visor.Server.sm_adm_hits

let test_admission_rejection_served () =
  (* A request whose image fails admission is answered at its arrival
     instant without starting an attempt; the requests around it run as
     usual, and the rejection is cached like an acceptance. *)
  Metrics.reset ();
  let live0 = Wfd.live_count () in
  let evil =
    Isa.Image.create ~name:"evil" ~toolchain:Isa.Image.Rust_plain_std
      [ Isa.Inst.Mov_reg; Isa.Inst.Syscall; Isa.Inst.Ret ]
  in
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"good" ~workflow:(compute_wf 5)
    ~bindings:(compute_bindings 5) ();
  Visor.Server.register server ~endpoint:"evil" ~workflow:(compute_wf 5)
    ~bindings:[ ("f", Visor.bind ~image:evil (fun _ ~instance:_ ~total:_ -> ())) ]
    ();
  let responses, s =
    Visor.Server.serve server
      [ req ~endpoint:"good" 0; req ~endpoint:"evil" 1; req ~endpoint:"good" 2;
        req ~endpoint:"evil" 3 ]
  in
  let by ep =
    List.filter (fun (r : Visor.Server.response) -> r.Visor.Server.r_endpoint = ep) responses
  in
  List.iter
    (fun (r : Visor.Server.response) ->
      Alcotest.(check bool) "rejected request fails" false r.Visor.Server.r_ok;
      Alcotest.check check_time "zero latency" Units.zero r.Visor.Server.r_latency;
      Alcotest.check check_time "answered at arrival" r.Visor.Server.r_arrival
        r.Visor.Server.r_finish;
      Alcotest.(check int) "no attempt" 0 r.Visor.Server.r_attempts;
      Alcotest.(check int) "no retry" 0 r.Visor.Server.r_retries;
      Alcotest.(check bool) "not warm" false r.Visor.Server.r_warm)
    (by "evil");
  Alcotest.(check int) "two rejections" 2 (List.length (by "evil"));
  List.iter
    (fun (r : Visor.Server.response) ->
      Alcotest.(check bool) "good request completes" true r.Visor.Server.r_ok)
    (by "good");
  Alcotest.(check int) "two good responses" 2 (List.length (by "good"));
  Alcotest.(check int) "completed" 2 s.Visor.Server.sm_completed;
  Alcotest.(check int) "failed" 2 s.Visor.Server.sm_failed;
  Alcotest.(check int) "image scanned once" 1 s.Visor.Server.sm_adm_scans;
  Alcotest.(check int) "rejection cached" 1 s.Visor.Server.sm_adm_hits;
  Alcotest.(check int) "only executed requests sample latency" 2
    (Metrics.histogram_count (Metrics.histogram "server.request_latency_ns"));
  Visor.Server.shutdown server;
  Metrics.reset ();
  Alcotest.(check int) "all WFDs reclaimed" live0 (Wfd.live_count ())

let test_no_wfd_leak_across_serve () =
  (* Mixed success/failure traffic, then shutdown: every WFD (requests,
     retries and templates) must be reclaimed. *)
  let before = Wfd.live_count () in
  let failing =
    [ ("f", Visor.bind (fun (_ : Asstd.ctx) ~instance:_ ~total:_ -> failwith "boom")) ]
  in
  let config = { Visor.default_config with Visor.retry = Visor.Retry_workflow 2 } in
  let server = Visor.Server.create ~config () in
  Visor.Server.register server ~endpoint:"ok" ~workflow:(compute_wf 5)
    ~bindings:(compute_bindings 5) ();
  Visor.Server.register server ~endpoint:"bad" ~workflow:(compute_wf 5) ~bindings:failing ();
  let responses, s =
    Visor.Server.serve server
      [ req ~endpoint:"ok" 0; req ~endpoint:"bad" 1; req ~endpoint:"ok" 2;
        req ~endpoint:"bad" 3 ]
  in
  Alcotest.(check int) "successes" 2 s.Visor.Server.sm_completed;
  Alcotest.(check int) "failures" 2 s.Visor.Server.sm_failed;
  let failed_resp =
    List.filter (fun (resp : Visor.Server.response) -> not resp.Visor.Server.r_ok)
      responses
  in
  List.iter
    (fun (resp : Visor.Server.response) ->
      Alcotest.(check int) "both workflow attempts consumed" 2
        resp.Visor.Server.r_attempts)
    failed_resp;
  Visor.Server.shutdown server;
  Alcotest.(check int) "all WFDs reclaimed" before (Wfd.live_count ())

let test_same_seed_bit_identical () =
  (* Identically seeded traces produce identical reports. *)
  let trace seed =
    let rng = Rng.create seed in
    let t = ref 0.0 in
    List.init 20 (fun _ ->
        t := !t +. Rng.exponential rng ~mean:0.002;
        { Visor.Server.endpoint = "e"; arrival = Units.ns_f (!t *. 1e9) })
  in
  let summarise (responses, (s : Visor.Server.summary)) =
    ( s.Visor.Server.sm_completed,
      s.Visor.Server.sm_max_inflight,
      List.map
        (fun (resp : Visor.Server.response) ->
          (resp.Visor.Server.r_endpoint, Units.to_ns resp.Visor.Server.r_latency,
           resp.Visor.Server.r_warm))
        responses )
  in
  let a = summarise (serve_simple ~requests:(trace 7) ()) in
  let b = summarise (serve_simple ~requests:(trace 7) ()) in
  Alcotest.(check bool) "identical runs" true (a = b);
  let c = summarise (serve_simple ~requests:(trace 8) ()) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_unknown_endpoint_and_duplicates () =
  let server = Visor.Server.create () in
  Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1)
    ~bindings:(compute_bindings 1) ();
  (match Visor.Server.register server ~endpoint:"e" ~workflow:(compute_wf 1)
           ~bindings:(compute_bindings 1) () with
  | () -> Alcotest.fail "duplicate endpoint must be rejected"
  | exception Invalid_argument _ -> ());
  (match Visor.Server.serve server [ req ~endpoint:"nope" 0 ] with
  | _ -> Alcotest.fail "unknown endpoint must raise"
  | exception Not_found -> ());
  Alcotest.(check (list string)) "endpoints listed" [ "e" ]
    (Visor.Server.endpoints server);
  Visor.Server.shutdown server

let test_warm_python_resumes_runtime () =
  (* A Python endpoint's template carries the booted engine + CPython;
     the clone resumes instead of re-booting, which is where the warm
     pool pays off most (Fig. 10's AS-Py cold start). *)
  let wf =
    Workflow.create_exn ~name:"py" ~nodes:[ node ~language:Workflow.Python "f" ] ~edges:[]
  in
  let bindings = compute_bindings 1 in
  let run warm =
    let server = Visor.Server.create ~warm () in
    Visor.Server.register server ~endpoint:"py" ~workflow:wf ~bindings ();
    if warm then ignore (Visor.Server.prewarm server ~endpoint:"py");
    let responses, _ = Visor.Server.serve server [ req ~endpoint:"py" 0 ] in
    Visor.Server.shutdown server;
    match responses with
    | [ resp ] -> resp.Visor.Server.r_latency
    | _ -> Alcotest.fail "one response expected"
  in
  let warm = run true and cold = run false in
  Alcotest.(check bool)
    (Printf.sprintf "python warm (%s) well below cold (%s)" (Units.to_string warm)
       (Units.to_string cold))
    true
    (* The cold path pays the full CPython boot; warm resumes it. *)
    (Units.( < ) (Units.add warm Wasm.Runtime.cpython_init) (Units.add cold (Units.ms 50)))

let test_serve_summary_percentiles () =
  let responses, s = serve_simple ~requests:(List.init 10 (fun i -> req (i * 30))) () in
  Alcotest.(check bool) "p50 <= p99" true
    (Units.( <= ) s.Visor.Server.sm_p50_latency s.Visor.Server.sm_p99_latency);
  Alcotest.(check bool) "throughput positive" true (s.Visor.Server.sm_throughput_rps > 0.0);
  Alcotest.check check_time "duration spans trace" s.Visor.Server.sm_duration
    (Units.sub
       (List.fold_left
          (fun acc (resp : Visor.Server.response) ->
            Units.max acc resp.Visor.Server.r_finish)
          Units.zero responses)
       Units.zero)

let test_create_rejects_shared_disk () =
  (* Every served request runs on its own scratch disk, so a pre-staged
     image in the config could only be ignored: it is refused. *)
  let config = { Visor.default_config with Visor.vfs = Some (Fsim.Vfs.fresh_fat ()) } in
  match Visor.Server.create ~config () with
  | _ -> Alcotest.fail "config.vfs must be rejected"
  | exception Invalid_argument _ -> ()

(* --- Visor.run as the one-request reference ------------------------ *)

(* A generated workflow: stages of nodes, each node a language, an
   instance count, a compute time per call, and the calls (numbered
   from 1 per node, across every attempt) that fail after computing.
   Failures come from a counter rather than a [Sim.Fault] plan, because
   the server splits a plan per request. *)
type ref_node = {
  rn_lang : Workflow.language;
  rn_instances : int;
  rn_ms : int;
  rn_fails : int list;
}

type ref_case = {
  rc_stages : ref_node list list;
  rc_cores : int;
  rc_retry : Visor.retry_policy;
}

let ref_case_gen =
  let open QCheck.Gen in
  let node =
    let* rn_lang = oneofl [ Workflow.Rust; Workflow.C; Workflow.Python ] in
    let* rn_instances = int_range 1 4 in
    let* rn_ms = int_range 1 20 in
    let* rn_fails = list_size (int_range 0 2) (int_range 1 6) in
    return { rn_lang; rn_instances; rn_ms; rn_fails }
  in
  let* rc_stages = list_size (int_range 1 4) (list_size (int_range 1 3) node) in
  let* rc_cores = oneofl [ 1; 2; 3; 64 ] in
  let* rc_retry =
    oneof
      [
        return Visor.No_retry;
        map (fun n -> Visor.Retry_function n) (int_range 1 3);
        map (fun n -> Visor.Retry_workflow n) (int_range 1 3);
      ]
  in
  return { rc_stages; rc_cores; rc_retry }

let print_ref_case c =
  let lang = function Workflow.Rust -> "rs" | Workflow.C -> "c" | Workflow.Python -> "py" in
  Printf.sprintf "cores %d, %s: %s" c.rc_cores
    (match c.rc_retry with
    | Visor.No_retry -> "no retry"
    | Visor.Retry_function n -> Printf.sprintf "function x%d" n
    | Visor.Retry_workflow n -> Printf.sprintf "workflow x%d" n)
    (String.concat " -> "
       (List.map
          (fun stage ->
            String.concat " + "
              (List.map
                 (fun n ->
                   Printf.sprintf "%s %dx%dms fails[%s]" (lang n.rn_lang) n.rn_instances
                     n.rn_ms
                     (String.concat "," (List.map string_of_int n.rn_fails)))
                 stage))
          c.rc_stages))

let ref_workflow c =
  let id k i = Printf.sprintf "s%dn%d" k i in
  let nodes =
    List.concat
      (List.mapi
         (fun k stage ->
           List.mapi
             (fun i n -> node ~instances:n.rn_instances ~language:n.rn_lang (id k i))
             stage)
         c.rc_stages)
  in
  let ids k = List.mapi (fun i _ -> id k i) (List.nth c.rc_stages k) in
  let edges =
    List.concat
      (List.init
         (List.length c.rc_stages - 1)
         (fun k ->
           List.concat_map (fun a -> List.map (fun b -> (a, b)) (ids (k + 1))) (ids k)))
  in
  Workflow.create_exn ~name:"ref" ~nodes ~edges

(* Fresh call counters on every call, so the reference run and the
   served run fail at the same calls. *)
let ref_bindings c =
  List.concat
    (List.mapi
       (fun k stage ->
         List.mapi
           (fun i n ->
             let calls = ref 0 in
             ( Printf.sprintf "s%dn%d" k i,
               Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
                   incr calls;
                   Asstd.compute ctx (Units.ms n.rn_ms);
                   if List.mem !calls n.rn_fails then failwith "injected") ))
           stage)
       c.rc_stages)

let serve_alone ~config ~workflow ~bindings =
  let server = Visor.Server.create ~config ~warm:false () in
  Visor.Server.register server ~endpoint:"ref" ~workflow ~bindings ();
  let responses, _ =
    Visor.Server.serve server [ { Visor.Server.endpoint = "ref"; arrival = Units.zero } ]
  in
  Visor.Server.shutdown server;
  match responses with [ r ] -> r | _ -> Alcotest.fail "one response expected"

let run_is_reference_property =
  QCheck.Test.make ~name:"run is the one-request reference for serve" ~count:300
    (QCheck.make ~print:print_ref_case ref_case_gen)
    (fun c ->
      let config =
        { Visor.default_config with Visor.cores = c.rc_cores; retry = c.rc_retry }
      in
      let workflow = ref_workflow c in
      let reference =
        match Visor.run ~config ~workflow ~bindings:(ref_bindings c) () with
        | report -> Some report
        | exception (Visor.Function_failed _ | Visor.Function_hung _) -> None
      in
      let r = serve_alone ~config ~workflow ~bindings:(ref_bindings c) in
      match reference with
      | None -> not r.Visor.Server.r_ok
      | Some report ->
          r.Visor.Server.r_ok
          && Units.equal r.Visor.Server.r_latency report.Visor.e2e
          && r.Visor.Server.r_retries + r.Visor.Server.r_attempts - 1
             = report.Visor.retries)

let test_workflow_retry_counts_failed_time () =
  (* Two stages of 2 x 7 ms then 2 x 5 ms; the second stage's first call
     fails.  A workflow retry starts where the failed attempt stopped,
     so e2e covers the failed attempt's boot and first stage as well;
     the other policies agree with serving too. *)
  let wf =
    Workflow.create_exn ~name:"retry-e2e"
      ~nodes:[ node ~instances:2 "a"; node ~instances:2 "b" ]
      ~edges:[ ("a", "b") ]
  in
  let bindings () =
    let calls = ref 0 in
    [
      ("a", Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
           Asstd.compute ctx (Units.ms 7)));
      ("b", Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
           incr calls;
           Asstd.compute ctx (Units.ms 5);
           if !calls = 1 then failwith "first call fails"));
    ]
  in
  let clean =
    (Visor.run ~config:{ Visor.default_config with Visor.retry = Visor.Retry_function 2 }
       ~workflow:wf ~bindings:(bindings ()) ())
      .Visor.e2e
  in
  List.iter
    (fun (retry, label) ->
      let config = { Visor.default_config with Visor.retry } in
      let report = Visor.run ~config ~workflow:wf ~bindings:(bindings ()) () in
      let served = serve_alone ~config ~workflow:wf ~bindings:(bindings ()) in
      Alcotest.check check_time (label ^ ": run == served alone")
        served.Visor.Server.r_latency report.Visor.e2e;
      if retry = Visor.Retry_workflow 2 then begin
        Alcotest.(check string) "workflow retry e2e" "21.88ms"
          (Units.to_string report.Visor.e2e);
        Alcotest.(check bool) "includes the failed attempt" true
          (Units.( > ) report.Visor.e2e clean)
      end)
    [ (Visor.Retry_function 2, "function retry"); (Visor.Retry_workflow 2, "workflow retry") ]

(* --- What a warm request allocates --- *)

(* Three tenants shaped like the serving benchmark's: a two-stage chain
   handing 32 KiB over through AsBuffer, an 8-way fan-out and a Python
   function. *)
let handoff = Bytes.make (32 * 1024) 'd'

let compute_kernel ms (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms ms)

let three_tenants =
  [
    ( "thumb",
      Workflow.create_exn ~name:"thumb"
        ~nodes:[ node ~modules:[ "fdtab" ] "extract"; node "render" ]
        ~edges:[ ("extract", "render") ],
      [
        ( "extract",
          Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
              Asstd.compute ctx (Units.ms 6);
              ignore (Asbuffer.with_slot_raw ctx ~slot:"thumb" handoff)) );
        ( "render",
          Visor.bind (fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
              ignore (Asbuffer.consume_slot_raw ctx ~slot:"thumb");
              Asstd.compute ctx (Units.ms 8)) );
      ] );
    ( "etl",
      Workflow.create_exn ~name:"etl"
        ~nodes:[ node ~instances:8 ~modules:[ "mm" ] "shard" ]
        ~edges:[],
      [ ("shard", Visor.bind (compute_kernel 12)) ] );
    ( "mlinf",
      Workflow.create_exn ~name:"mlinf" ~nodes:[ node ~language:Workflow.Python "infer" ] ~edges:[],
      [ ("infer", Visor.bind (compute_kernel 10)) ] );
  ]

(* Minor words per request of a warm server: the pool, the shells and
   every template are built during a warm-up, so what is measured is
   what each served request allocates and drops. *)
let test_warm_request_allocation () =
  let server = Visor.Server.create ~sample_every:64 ~sketch_latency:true () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    three_tenants;
  let endpoint i = match i mod 3 with 0 -> "thumb" | 1 -> "etl" | _ -> "mlinf" in
  let requests ~from n =
    List.init n (fun i -> { Visor.Server.endpoint = endpoint i; arrival = Units.ms (from + (4 * i)) })
  in
  ignore (Visor.Server.serve server (requests ~from:0 300));
  let n = 3000 in
  let pending = ref (requests ~from:10_000 n) in
  let next () =
    match !pending with
    | [] -> None
    | r :: rest ->
        pending := rest;
        Some r
  in
  let w0 = Gc.minor_words () in
  let (), summary = Visor.Server.serve_fold server next ~init:() ~f:(fun () _ -> ()) in
  let per_request = (Gc.minor_words () -. w0) /. float_of_int n in
  Visor.Server.shutdown server;
  Alcotest.(check int) "every request completes" n summary.Visor.Server.sm_completed;
  if per_request >= 1500.0 then
    Alcotest.failf "a warm request allocates %.0f minor words (bound 1500)" per_request

let suite =
  [
    Alcotest.test_case "warm start beats cold" `Quick test_warm_start_beats_cold;
    Alcotest.test_case "first request seeds pool" `Quick test_first_request_seeds_pool;
    Alcotest.test_case "sustains 32 in flight" `Quick test_sustains_32_inflight;
    Alcotest.test_case "stages share cores" `Quick test_stages_share_cores;
    Alcotest.test_case "LRU eviction under cap" `Quick test_lru_eviction_under_cap;
    Alcotest.test_case "admission cache across requests" `Quick
      test_admission_cache_across_requests;
    Alcotest.test_case "no wfd leak across serve" `Quick test_no_wfd_leak_across_serve;
    Alcotest.test_case "same seed bit identical" `Quick test_same_seed_bit_identical;
    Alcotest.test_case "unknown endpoint / duplicates" `Quick
      test_unknown_endpoint_and_duplicates;
    Alcotest.test_case "warm python resumes runtime" `Quick
      test_warm_python_resumes_runtime;
    Alcotest.test_case "serve report percentiles" `Quick test_serve_summary_percentiles;
    Alcotest.test_case "create rejects a shared disk" `Quick
      test_create_rejects_shared_disk;
    Alcotest.test_case "workflow retry counts failed time" `Quick
      test_workflow_retry_counts_failed_time;
    QCheck_alcotest.to_alcotest run_is_reference_property;
    Alcotest.test_case "warm request allocates < 1500 minor words" `Quick
      test_warm_request_allocation;
    Alcotest.test_case "admission rejection on a server" `Quick
      test_admission_rejection_served;
  ]
