(* The alloystack CLI: run the built-in benchmark workflows on any of
   the simulated platforms, inspect cold starts, or validate a JSON
   workflow configuration.

     dune exec bin/alloystack_cli.exe -- run --app sorting --size 8M
     dune exec bin/alloystack_cli.exe -- coldstart
     dune exec bin/alloystack_cli.exe -- check examples/greeter.json
     dune exec bin/alloystack_cli.exe -- explain --app pipe *)

open Cmdliner
open Baselines

let platforms =
  [
    ("alloystack", As_platform.alloystack);
    ("alloystack-ifi", As_platform.alloystack_ifi);
    ("alloystack-c", As_platform.alloystack_c);
    ("alloystack-py", As_platform.alloystack_py);
    ("alloystack-ramfs", As_platform.alloystack_ramfs);
    ("faastlane", Faastlane.default_);
    ("faastlane-refer", Faastlane.refer);
    ("faastlane-ipc", Faastlane.ipc);
    ("faastlane-kata", Faastlane.refer_kata);
    ("openfaas", Openfaas.openfaas);
    ("openfaas-gvisor", Openfaas.openfaas_gvisor);
    ("faasm-c", Faasm.c);
    ("faasm-py", Faasm.python);
  ]

let parse_size s =
  let n = String.length s in
  if n = 0 then Error "empty size"
  else begin
    let unit_of c = match c with 'K' | 'k' -> 1024 | 'M' | 'm' -> 1024 * 1024 | _ -> 0 in
    let mult = unit_of s.[n - 1] in
    let digits = if mult = 0 then s else String.sub s 0 (n - 1) in
    match int_of_string_opt digits with
    | Some v -> Ok (v * if mult = 0 then 1 else mult)
    | None -> Error (Printf.sprintf "bad size %S" s)
  end

let make_app ~app ~seed ~size ~instances ~length =
  match app with
  | "wordcount" -> Ok (Workloads.Wordcount.app ~seed ~size ~instances)
  | "sorting" -> Ok (Workloads.Parallel_sorting.app ~seed ~size ~instances)
  | "chain" -> Ok (Workloads.Function_chain.app ~seed ~payload:size ~length)
  | "pipe" -> Ok (Workloads.Pipe_app.app ~seed ~size)
  | "image" -> Ok (Workloads.Image_meta.image_pipeline ~seed)
  | "noops" -> Ok Workloads.Pipe_app.noops
  | other -> Error (Printf.sprintf "unknown app %S" other)

(* Each CLI invocation is one run: drop whatever a previous library
   user left in the process-global collectors so exported traces and
   metric snapshots cover this run only. *)
let reset_observability () =
  Sim.Trace.clear Sim.Trace.global;
  Sim.Span.clear Sim.Span.global;
  Sim.Metrics.reset ()

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let export_trace = function
  | None -> ()
  | Some path ->
      write_file path (Alloystack_core.Obs.trace_json_string ());
      Format.printf "trace:       %d span(s) -> %s@."
        (Sim.Span.count Sim.Span.global)
        path

let export_metrics = function
  | None -> ()
  | Some path ->
      write_file path (Alloystack_core.Obs.metrics_json_string ());
      Format.printf "metrics:     %s@." path

let run_cmd app platform size instances length seed trace trace_out metrics_out =
  reset_observability ();
  if trace then Sim.Trace.set_enabled Sim.Trace.global true;
  if trace || trace_out <> None then Sim.Span.set_enabled Sim.Span.global true;
  match (parse_size size, List.assoc_opt platform platforms) with
  | Error e, _ ->
      prerr_endline e;
      1
  | _, None ->
      Printf.eprintf "unknown platform %s; available: %s\n" platform
        (String.concat " " (List.map fst platforms));
      1
  | Ok size, Some p -> begin
      match make_app ~app ~seed ~size ~instances ~length with
      | Error e ->
          prerr_endline e;
          1
      | Ok workload ->
          let m = p.Platform.run workload in
          Format.printf "platform:    %s@." m.Platform.platform;
          Format.printf "end-to-end:  %a@." Sim.Units.pp m.Platform.e2e;
          Format.printf "cold start:  %a@." Sim.Units.pp m.Platform.cold_start;
          Format.printf "cpu time:    %a@." Sim.Units.pp m.Platform.cpu_time;
          Format.printf "peak rss:    %a@." Sim.Units.pp_bytes m.Platform.peak_rss;
          List.iter
            (fun (name, t) -> Format.printf "  %-12s %a@." name Sim.Units.pp t)
            m.Platform.phase_totals;
          if trace then begin
            Format.printf "--- trace (%d events, %d dropped) ---@."
              (Sim.Trace.count Sim.Trace.global)
              (Sim.Trace.dropped Sim.Trace.global);
            print_endline (Sim.Trace.dump Sim.Trace.global)
          end;
          export_trace trace_out;
          export_metrics metrics_out;
          (match m.Platform.validated with
          | Ok () ->
              Format.printf "output:      validated@.";
              0
          | Error e ->
              Format.printf "output:      WRONG (%s)@." e;
              1)
    end

(* The serving workload the CLI exercises: a 3-stage chain of 5ms
   compute kernels behind one endpoint, shared by [serve] and
   [explain --tails]. *)
let make_chain_server ~cold ~sample_every ~seed ~sketch_latency =
  let open Alloystack_core in
  let wf = Workflow.chain ~name:"serve-chain" 3 in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Sim.Units.ms 5)
  in
  let bindings =
    List.map
      (fun (n : Workflow.node) -> (n.Workflow.node_id, Visor.bind kernel))
      wf.Workflow.nodes
  in
  let server =
    Visor.Server.create ~warm:(not cold) ~sample_every ~sample_seed:seed
      ~sketch_latency ()
  in
  Visor.Server.register server ~endpoint:"chain" ~workflow:wf ~bindings ();
  server

(* Serve a seeded open-loop load with spans on, then attribute every
   request at or above the latency quantile to its dominant
   critical-path bucket. *)
let explain_tails ~requests ~qps ~seed ~quantile =
  reset_observability ();
  Sim.Span.set_enabled Sim.Span.global true;
  let open Alloystack_core in
  let server = make_chain_server ~cold:false ~sample_every:1 ~seed ~sketch_latency:false in
  let next =
    Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:[| "chain" |]
      ~count:requests ()
  in
  let (), s =
    Visor.Server.serve_fold server
      (fun () ->
        match next () with
        | None -> None
        | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
      ~init:() ~f:(fun () _ -> ())
  in
  Visor.Server.shutdown server;
  Format.printf "served:      %d requests at %.1f qps (p99 %a)@." requests qps
    Sim.Units.pp s.Visor.Server.sm_p99_latency;
  let tr = Obs.tails ~quantile () in
  print_string (Obs.render_tails tr);
  0

(* Run one workflow with span collection on and attribute its whole
   end-to-end latency to cost categories along the critical path. *)
let explain_cmd app platform size instances length seed trace_out tails requests
    qps quantile =
  if tails then explain_tails ~requests ~qps ~seed ~quantile
  else begin
  reset_observability ();
  Sim.Span.set_enabled Sim.Span.global true;
  match (parse_size size, List.assoc_opt platform platforms) with
  | Error e, _ ->
      prerr_endline e;
      1
  | _, None ->
      Printf.eprintf "unknown platform %s; available: %s\n" platform
        (String.concat " " (List.map fst platforms));
      1
  | Ok size, Some p -> begin
      match make_app ~app ~seed ~size ~instances ~length with
      | Error e ->
          prerr_endline e;
          1
      | Ok workload ->
          let m = p.Platform.run workload in
          let open Alloystack_core in
          (match Obs.find_root ~category:"workflow" () with
          | None ->
              Printf.eprintf
                "platform %s recorded no workflow spans (explain needs a \
                 visor-backed platform: alloystack*)\n"
                platform;
              1
          | Some root ->
              let bd = Obs.breakdown ~root:root.Sim.Span.sp_id () in
              Format.printf "platform:    %s@." m.Platform.platform;
              print_string (Obs.render_breakdown bd);
              let attributed =
                List.fold_left
                  (fun acc (_, d) -> Sim.Units.add acc d)
                  Sim.Units.zero bd.Obs.bd_buckets
              in
              Format.printf "attributed:  %s of %s (%s)@."
                (Sim.Units.to_string attributed)
                (Sim.Units.to_string bd.Obs.bd_total)
                (if Sim.Units.equal attributed bd.Obs.bd_total then "exact"
                 else "INEXACT");
              export_trace trace_out;
              if Sim.Units.equal attributed bd.Obs.bd_total then 0 else 1)
    end
  end

let coldstart_cmd () =
  Format.printf "%-14s %s@." "system" "cold start";
  List.iter
    (fun (e : Singlefn.entry) ->
      Format.printf "%-14s %s@." e.Singlefn.label (Sim.Units.to_string e.Singlefn.cold_start))
    (Singlefn.figure10 ());
  0

let check_cmd dot file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline e;
      1
  | contents -> begin
      match Alloystack_core.Workflow.of_string contents with
      | Error e ->
          Printf.eprintf "invalid workflow: %s\n" e;
          1
      | Ok wf ->
          let open Alloystack_core in
          Format.printf "workflow %s: %d function(s), %d edge(s), %d stage(s)@."
            wf.Workflow.wf_name
            (List.length wf.Workflow.nodes)
            (List.length wf.Workflow.edges)
            (List.length (Workflow.stages wf));
          List.iteri
            (fun i stage ->
              Format.printf "  stage %d: %s@." i
                (String.concat ", "
                   (List.map
                      (fun (n : Workflow.node) ->
                        Printf.sprintf "%s x%d (%a)" n.Workflow.node_id
                          n.Workflow.instances
                          (fun () l -> Format.asprintf "%a" Workflow.pp_language l)
                          n.Workflow.language)
                      stage)))
            (Workflow.stages wf);
          Format.printf "required as-libos modules: %s@."
            (String.concat ", " (Workflow.required_modules wf));
          if dot then print_string (Workflow.to_dot wf);
          0
    end

(* Serve a synthetic open-loop request trace against the warm-pool
   server and print the latency/throughput summary.  With [--soak] the
   run is time-bounded instead of count-bounded ({!Baselines.Soak}):
   percentiles come from the t-digest, and the run fails if live heap
   words trend upward across snapshots. *)
let serve_cmd requests qps seed cold domains sample_every soak duration trace
    trace_out metrics_out slos csv_out prom_out tails =
  reset_observability ();
  Sim.Par.set_domains domains;
  if trace then Sim.Trace.set_enabled Sim.Trace.global true;
  if trace || trace_out <> None || tails then
    Sim.Span.set_enabled Sim.Span.global true;
  if sample_every > 1 then Sim.Metrics.set_raw_sample_every ~seed sample_every;
  let open Alloystack_core in
  let server = make_chain_server ~cold ~sample_every ~seed ~sketch_latency:soak in
  if slos <> [] || csv_out <> None then begin
    if soak then Baselines.Soak.enable_telemetry server ~seconds:duration ~slos
    else Visor.Server.enable_telemetry server ~slos ()
  end;
  let status = ref 0 in
  if soak then begin
    let r =
      Baselines.Soak.run server ~seed ~qps ~endpoints:[| "chain" |] ~seconds:duration
    in
    let s = r.Baselines.Soak.summary in
    Format.printf "soak:         %ds virtual at %.1f qps@." duration qps;
    Format.printf "requests:     %d ok, %d failed@." s.Visor.Server.sm_completed
      s.Visor.Server.sm_failed;
    Format.printf "throughput:   %.1f req/s@." s.Visor.Server.sm_throughput_rps;
    Format.printf "latency:      p50 %a  p99 %a (sketched)@." Sim.Units.pp
      s.Visor.Server.sm_p50_latency Sim.Units.pp s.Visor.Server.sm_p99_latency;
    Format.printf "max inflight: %d@." s.Visor.Server.sm_max_inflight;
    match Baselines.Soak.memory_verdict r.Baselines.Soak.snapshots with
    | Some { flat = false; first; worst } ->
        Format.eprintf "soak: live words grew %d -> %d — memory is not flat@." first worst;
        status := 1
    | Some { first; worst; _ } ->
        Format.printf "memory:       flat (%d -> %d live words)@." first worst
    | None -> ()
  end
  else begin
    (* Streamed seeded arrivals folded as they complete: constant memory
       in the request count. *)
    let next =
      Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:[| "chain" |]
        ~count:requests ()
    in
    let (), s =
      Visor.Server.serve_fold server
        (fun () ->
          match next () with
          | None -> None
          | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
        ~init:() ~f:(fun () _ -> ())
    in
    Format.printf "requests:     %d (%d ok, %d failed)@." requests
      s.Visor.Server.sm_completed s.Visor.Server.sm_failed;
    Format.printf "throughput:   %.1f req/s@." s.Visor.Server.sm_throughput_rps;
    Format.printf "latency:      p50 %a  p99 %a@." Sim.Units.pp s.Visor.Server.sm_p50_latency
      Sim.Units.pp s.Visor.Server.sm_p99_latency;
    Format.printf "max inflight: %d@." s.Visor.Server.sm_max_inflight;
    Format.printf "starts:       %d warm / %d cold@." s.Visor.Server.sm_warm_starts
      s.Visor.Server.sm_cold_starts
  end;
  (* SLO verdicts: compliance against objective, final burn rates, and
     the full deterministic alert log. *)
  List.iter
    (fun m ->
      let fast, slow = Sim.Slo.burn_rates m in
      Format.printf "slo %s:      compliance %.4f (%d/%d good), burn fast %.2f slow %.2f%s@."
        (Sim.Slo.name m) (Sim.Slo.compliance m) (Sim.Slo.good m)
        (Sim.Slo.total m) fast slow
        (if Sim.Slo.paging m then "  [PAGING]" else ""))
    (Visor.Server.slo_monitors server);
  List.iter
    (fun a -> Format.printf "  %s@." (Sim.Slo.render_alert a))
    (Visor.Server.slo_alerts server);
  if tails then begin
    let tr = Obs.tails () in
    print_string (Obs.render_tails tr)
  end;
  (match (csv_out, Visor.Server.telemetry server) with
  | Some path, Some ts ->
      write_file path (Sim.Timeseries.to_csv ts);
      Format.printf "timeseries:  %s@." path
  | Some _, None | None, _ -> ());
  (match prom_out with
  | Some path ->
      write_file path (Obs.prometheus_string ());
      Format.printf "prometheus:  %s@." path
  | None -> ());
  Visor.Server.shutdown server;
  if sample_every > 1 then Sim.Metrics.set_raw_sample_every 1;
  if trace then begin
    Format.printf "--- trace (%d events, %d dropped) ---@."
      (Sim.Trace.count Sim.Trace.global)
      (Sim.Trace.dropped Sim.Trace.global);
    print_endline (Sim.Trace.dump Sim.Trace.global)
  end;
  export_trace trace_out;
  export_metrics metrics_out;
  Sim.Par.set_domains 1;
  !status

(* [conv] restricted to the values [ok] accepts: an out-of-range flag is
   a usage error (exit 124) that names the flag, not an exception raised
   inside the command. *)
let restrict conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S: expected %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let int_from n =
  restrict Arg.int ~expect:(Printf.sprintf "an integer >= %d" n) (fun v -> v >= n)

let positive_float =
  restrict Arg.float ~expect:"a positive finite number" (fun v ->
      Float.is_finite v && v > 0.0)

(* "name:latency_ms:objective", e.g. "interactive:250:0.999".  The
   latency must fit a [Units.time], which counts nanoseconds in a
   native int. *)
let slo_spec =
  let max_ms = Float.of_int max_int /. 1e6 in
  let parse s =
    let bad expect = Error (`Msg (Printf.sprintf "%S: expected %s" s expect)) in
    let num f = Option.value ~default:Float.nan (float_of_string_opt f) in
    match String.split_on_char ':' s with
    | [ ""; _; _ ] -> bad "a non-empty NAME"
    | [ name; lat; obj ] ->
        let lat = num lat and obj = num obj in
        if not (lat > 0.0 && lat < max_ms) then
          bad (Printf.sprintf "0 < LATENCY_MS < %.2g" max_ms)
        else if not (obj > 0.0 && obj < 1.0) then bad "0 < OBJECTIVE < 1"
        else Ok (Sim.Slo.spec ~objective:obj ~name ~latency:(Sim.Units.ms_f lat) ())
    | _ -> bad "NAME:LATENCY_MS:OBJECTIVE"
  in
  let print ppf (sp : Sim.Slo.spec) =
    Format.fprintf ppf "%s:%g:%g" sp.Sim.Slo.slo_name
      (Sim.Units.to_ms sp.Sim.Slo.slo_latency)
      sp.Sim.Slo.slo_objective
  in
  Arg.conv ~docv:"NAME:LATENCY_MS:OBJECTIVE" (parse, print)

let app_arg =
  Arg.(value & opt string "pipe"
       & info [ "app"; "a" ] ~doc:"Workload: wordcount, sorting, chain, pipe, image, noops.")

let platform_arg =
  Arg.(value & opt string "alloystack"
       & info [ "platform"; "p" ] ~doc:"Platform to run on (see --help for the list).")

let size_arg =
  Arg.(value & opt string "4M" & info [ "size"; "s" ] ~doc:"Input/payload size (e.g. 64K, 25M).")

let instances_arg =
  Arg.(value & opt (int_from 1) 3 & info [ "instances"; "i" ] ~doc:"Parallel instances per stage.")

let length_arg =
  Arg.(value & opt (int_from 2) 5 & info [ "length"; "l" ] ~doc:"FunctionChain length.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Data-generation seed.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the visor/loader event trace after the run.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the span tree as Chrome trace_event JSON (Perfetto-loadable) to $(docv).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a JSON snapshot of the metrics registry to $(docv).")

let run_term =
  Term.(
    const run_cmd $ app_arg $ platform_arg $ size_arg $ instances_arg $ length_arg
    $ seed_arg $ trace_arg $ trace_out_arg $ metrics_out_arg)

let run_info =
  Cmd.info "run" ~doc:"Run a benchmark workflow on a simulated platform."

let coldstart_info = Cmd.info "coldstart" ~doc:"Print the Fig. 10 cold-start table."

let check_info = Cmd.info "check" ~doc:"Validate a JSON workflow configuration."

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Also print the DAG in Graphviz format.")

let requests_arg =
  Arg.(value & opt (int_from 1) 100 & info [ "requests"; "n" ] ~doc:"Number of requests to serve.")

let qps_arg =
  Arg.(value & opt positive_float 500.0 & info [ "qps" ] ~doc:"Mean open-loop arrival rate.")

let cold_arg =
  Arg.(value & flag & info [ "cold" ] ~doc:"Disable the warm template pool.")

let domains_arg =
  Arg.(value & opt (int_from 1) 1
       & info [ "domains" ]
           ~doc:"Host domain pool width for request execution.  Virtual-time \
                 results (latencies, trace, metrics) are bit-identical for \
                 every value; only wall time changes.")

let sample_every_arg =
  Arg.(value & opt (int_from 1) 1
       & info [ "sample-every" ]
           ~doc:"Sample per-request observability 1-in-K: only every Kth \
                 request carries spans/trace events and metrics raw-sample \
                 reservoirs are thinned the same way.  Latency percentiles \
                 and counters stay exact.  1 (default) records everything.")

let soak_arg =
  Arg.(value & flag
       & info [ "soak" ]
           ~doc:"Run time-bounded (--duration virtual seconds) instead of \
                 count-bounded: latency percentiles come from a t-digest \
                 sketch, a snapshot line prints every 1/12th of the run, and \
                 the run fails if live heap words trend upward across \
                 snapshots.")

let duration_arg =
  Arg.(value & opt (int_from 1) 3600
       & info [ "duration" ] ~docv:"SECS"
           ~doc:"Soak length in virtual seconds (with --soak).")

let slo_arg =
  Arg.(value & opt_all slo_spec []
       & info [ "slo" ] ~docv:"NAME:LATENCY_MS:OBJECTIVE"
           ~doc:"Declare an SLO (repeatable): a request is good when it \
                 succeeds within LATENCY_MS, and OBJECTIVE (e.g. 0.999) is \
                 the target good fraction.  Enables windowed telemetry and \
                 multi-window burn-rate alerting; pages and clears print at \
                 their deterministic virtual instants.")

let csv_out_arg =
  Arg.(value & opt (some string) None
       & info [ "csv-out" ] ~docv:"FILE"
           ~doc:"Write the windowed timeseries (1 virtual-second windows) as \
                 CSV to $(docv).  Enables telemetry.")

let prom_out_arg =
  Arg.(value & opt (some string) None
       & info [ "prom-out" ] ~docv:"FILE"
           ~doc:"Write a Prometheus text-format snapshot of the metrics \
                 registry to $(docv).")

let tails_arg =
  Arg.(value & flag
       & info [ "tails" ]
           ~doc:"Attribute every request at or above the tail latency \
                 quantile to its dominant critical-path bucket and print the \
                 verdict table.")

let tail_quantile_arg =
  Arg.(value
       & opt (restrict float ~expect:"0 < PCT <= 100" (fun q -> q > 0.0 && q <= 100.0)) 99.0
       & info [ "tail-quantile" ] ~docv:"PCT"
           ~doc:"Latency quantile defining the tail for --tails (default 99).")

let explain_term =
  Term.(
    const explain_cmd $ app_arg $ platform_arg $ size_arg $ instances_arg $ length_arg
    $ seed_arg $ trace_out_arg $ tails_arg $ requests_arg $ qps_arg
    $ tail_quantile_arg)

let explain_info =
  Cmd.info "explain"
    ~doc:
      "Run a workflow with span tracing and print the critical-path latency \
       breakdown (boot / load / compute / transfer / network / io / retry).  \
       With --tails, serve an open-loop load instead and print the tail \
       verdict table: which bucket dominates each request at or above the \
       tail quantile."

let serve_info =
  Cmd.info "serve"
    ~doc:"Serve a seeded open-loop load through the warm-pool server and report latency."

let serve_term =
  Term.(
    const serve_cmd $ requests_arg $ qps_arg $ seed_arg $ cold_arg $ domains_arg
    $ sample_every_arg $ soak_arg $ duration_arg $ trace_arg $ trace_out_arg
    $ metrics_out_arg $ slo_arg $ csv_out_arg $ prom_out_arg $ tails_arg)

let main =
  Cmd.group (Cmd.info "alloystack" ~doc:"AlloyStack reproduction CLI")
    [
      Cmd.v run_info run_term;
      Cmd.v explain_info explain_term;
      Cmd.v coldstart_info Term.(const coldstart_cmd $ const ());
      Cmd.v check_info Term.(const check_cmd $ dot_arg $ file_arg);
      Cmd.v serve_info serve_term;
    ]

let () = exit (Cmd.eval' main)
