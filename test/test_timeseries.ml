(* Tests for windowed virtual-time telemetry: Sim.Timeseries window
   arithmetic and ring retention; Sim.Slo burn-rate alerting;
   and the serving path's timeseries / SLO / exporter byte-identity
   across host domain counts. *)

open Sim
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

(* --- Timeseries windows ------------------------------------------- *)

let test_window_boundary () =
  let ts = Timeseries.create () in
  let c = Timeseries.counter ts "req" in
  (* Window w covers [w*width, (w+1)*width): an observation exactly on
     the boundary opens the next window. *)
  Timeseries.add ts c ~at:Units.zero 1.0;
  Timeseries.add ts c ~at:(Units.ms 999) 1.0;
  Timeseries.add ts c ~at:(Units.sec 1) 1.0;
  Timeseries.add ts c ~at:(Units.ms 1001) 1.0;
  Alcotest.(check int) "boundary instant's window" 1
    (Timeseries.window_of ts (Units.sec 1));
  Alcotest.(check (float 0.0)) "window 0 sums" 2.0 (Timeseries.value ts c 0);
  Alcotest.(check (float 0.0)) "window 1 sums" 2.0 (Timeseries.value ts c 1);
  Alcotest.check check_time "window start" (Units.sec 1)
    (Timeseries.window_start ts 1);
  Alcotest.(check int) "last window" 1 (Timeseries.last_window ts)

let test_empty_windows () =
  let ts = Timeseries.create () in
  let c = Timeseries.counter ts "req" in
  let d = Timeseries.dist ts "lat" in
  Timeseries.add ts c ~at:(Units.ms 500) 3.0;
  Timeseries.observe ts d ~at:(Units.ms 500) 10.0;
  (* An idle gap: windows 1..3 see nothing, window 4 sees traffic. *)
  Timeseries.add ts c ~at:(Units.ms 4500) 5.0;
  Alcotest.(check (float 0.0)) "idle window reads zero" 0.0
    (Timeseries.value ts c 2);
  Alcotest.(check int) "idle dist window is empty" 0
    (Timeseries.dist_count ts d 2);
  Alcotest.(check (float 0.0)) "empty-window percentile" 0.0
    (Timeseries.dist_percentile ts d 2 99.0);
  (* The CSV covers the full retained range, empty windows included:
     header + 5 windows x 2 series. *)
  let rows = String.split_on_char '\n' (String.trim (Timeseries.to_csv ts)) in
  Alcotest.(check int) "csv rows cover idle gap" 11 (List.length rows)

let test_ring_wrap_and_retention () =
  let ts = Timeseries.create ~retention:4 () in
  let c = Timeseries.counter ts "req" in
  for w = 0 to 9 do
    Timeseries.add ts c ~at:(Units.ms ((w * 1000) + 1)) (float_of_int (w + 1))
  done;
  Alcotest.(check int) "last window" 9 (Timeseries.last_window ts);
  Alcotest.(check int) "first retained window" 6 (Timeseries.first_window ts);
  (* Retained windows survive the wrap with their own sums... *)
  Alcotest.(check (float 0.0)) "window 9 kept" 10.0 (Timeseries.value ts c 9);
  Alcotest.(check (float 0.0)) "window 6 kept" 7.0 (Timeseries.value ts c 6);
  (* ...and windows behind the horizon read zero. *)
  Alcotest.(check (float 0.0)) "window 3 evicted" 0.0 (Timeseries.value ts c 3);
  Alcotest.(check int) "nothing dropped yet" 0 (Timeseries.dropped ts);
  (* A straggler behind the horizon is discarded and counted. *)
  Timeseries.add ts c ~at:(Units.ms 1) 1.0;
  Alcotest.(check (float 0.0)) "straggler not applied" 0.0
    (Timeseries.value ts c 0);
  Alcotest.(check int) "straggler counted" 1 (Timeseries.dropped ts)

let test_gauge_and_dist_semantics () =
  let ts = Timeseries.create () in
  let g = Timeseries.gauge ts "inflight" in
  let d = Timeseries.dist ts "lat" in
  Timeseries.add ts g ~at:(Units.ms 100) 3.0;
  Timeseries.add ts g ~at:(Units.ms 200) 7.0;
  Timeseries.add ts g ~at:(Units.ms 300) 5.0;
  Alcotest.(check (float 0.0)) "gauge keeps the max" 7.0
    (Timeseries.value ts g 0);
  List.iter
    (fun v -> Timeseries.observe ts d ~at:(Units.ms 400) v)
    [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "dist count" 4 (Timeseries.dist_count ts d 0);
  Alcotest.(check (float 0.0)) "dist sum" 10.0 (Timeseries.dist_sum ts d 0);
  Alcotest.(check bool) "dist p50 within range" true
    (let p = Timeseries.dist_percentile ts d 0 50.0 in
     p >= 1.0 && p <= 4.0);
  (* One name cannot be two kinds. *)
  Alcotest.check_raises "counter vs gauge collision"
    (Invalid_argument "Timeseries: inflight registered with another kind")
    (fun () ->
      let ts2 = Timeseries.create () in
      ignore (Timeseries.counter ts2 "inflight");
      ignore (Timeseries.gauge ts2 "inflight"));
  Alcotest.check_raises "scalar vs dist collision"
    (Invalid_argument "Timeseries: lat is already a dist series")
    (fun () -> ignore (Timeseries.counter ts "lat"))

(* --- SLO burn-rate alerts ----------------------------------------- *)

let slo_spec () =
  (* Objective 0.9 (budget 0.1), burn threshold 2.0: pages when >= 20%
     of requests go bad across both a 2 s fast and a 5 s slow window. *)
  Slo.spec ~name:"t" ~latency:(Units.ms 100) ~objective:0.9
    ~fast:(Units.sec 2) ~slow:(Units.sec 5) ~burn:2.0 ()

let feed m ~bucket ~good ~bad =
  for _ = 1 to good do
    Slo.observe m ~at:(Units.ms ((bucket * 1000) + 500)) ~good:true
  done;
  for _ = 1 to bad do
    Slo.observe m ~at:(Units.ms ((bucket * 1000) + 500)) ~good:false
  done

let test_slo_page_and_clear () =
  let m = Slo.create (slo_spec ()) in
  (* Five healthy seconds, one fully-bad second, then recovery. *)
  for b = 0 to 4 do
    feed m ~bucket:b ~good:10 ~bad:0
  done;
  feed m ~bucket:5 ~good:0 ~bad:10;
  for b = 6 to 10 do
    feed m ~bucket:b ~good:10 ~bad:0
  done;
  Slo.finish m ~at:(Units.sec 11);
  (match Slo.alerts m with
  | [ page; clear ] ->
      Alcotest.(check bool) "first is a page" true (page.Slo.al_kind = Slo.Page);
      (* Bucket 5 closes at t=6s: fast = {4,5} is 10 bad of 20 (burn
         5.0), slow = {1..5} is 10 bad of 50 (burn 2.0) — both at or
         past the threshold. *)
      Alcotest.check check_time "page instant" (Units.sec 6) page.Slo.al_at;
      Alcotest.(check (float 1e-9)) "page fast burn" 5.0 page.Slo.al_fast;
      Alcotest.(check (float 1e-9)) "page slow burn" 2.0 page.Slo.al_slow;
      Alcotest.(check bool) "second clears" true (clear.Slo.al_kind = Slo.Clear);
      (* The bad bucket leaves the slow window when bucket 10 closes at
         t=11s; the fast window recovered earlier, but a clear needs
         both below threshold. *)
      Alcotest.check check_time "clear instant" (Units.sec 11) clear.Slo.al_at;
      Alcotest.(check (float 1e-9)) "clear burns" 0.0
        (Float.max clear.Slo.al_fast clear.Slo.al_slow)
  | l ->
      Alcotest.failf "expected page then clear, got %d alerts" (List.length l));
  Alcotest.(check bool) "not paging after clear" false (Slo.paging m);
  Alcotest.(check int) "totals" 110 (Slo.total m);
  Alcotest.(check int) "good counts" 100 (Slo.good m)

let test_slo_latency_rule () =
  let m = Slo.create (slo_spec ()) in
  Slo.observe_request m ~at:(Units.ms 100) ~ok:true ~latency:(Units.ms 100);
  Slo.observe_request m ~at:(Units.ms 200) ~ok:true ~latency:(Units.ms 101);
  Slo.observe_request m ~at:(Units.ms 300) ~ok:false ~latency:(Units.ms 1);
  Slo.finish m ~at:(Units.sec 1);
  (* Good iff ok and within threshold (inclusive). *)
  Alcotest.(check int) "one good" 1 (Slo.good m);
  Alcotest.(check int) "three total" 3 (Slo.total m);
  Alcotest.(check (float 1e-9)) "compliance" (1.0 /. 3.0) (Slo.compliance m)

let test_slo_idle_gap () =
  (* A virtual week of silence between bursts must neither fire alerts
     nor change the counts — and must return quickly (the gap skip). *)
  let m = Slo.create (slo_spec ()) in
  feed m ~bucket:0 ~good:10 ~bad:0;
  Slo.observe m ~at:(Units.sec 604800) ~good:true;
  Slo.finish m ~at:(Units.sec 604801);
  Alcotest.(check int) "no alerts across the gap" 0
    (List.length (Slo.alerts m));
  Alcotest.(check int) "counts survive" 11 (Slo.total m)

let test_slo_render_deterministic () =
  let a =
    {
      Slo.al_slo = "checkout";
      al_kind = Slo.Page;
      al_at = Units.ms 312500;
      al_fast = 15.2;
      al_slow = 14.5;
    }
  in
  (* Fixed-point with trailing zeros trimmed — never %g. *)
  Alcotest.(check string) "fixed-point rendering"
    "slo checkout PAGE at 312.5s (burn fast 15.2 slow 14.5)"
    (Slo.render_alert a)

(* --- serving byte-identity across domain counts ------------------- *)

let serve_with_telemetry requests =
  Test_par.reset_observability ();
  Span.set_enabled Span.global true;
  let server = Visor.Server.create ~warm:true () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    Test_par.endpoints_spec;
  Visor.Server.enable_telemetry server
    ~slos:
      [
        Slo.spec ~name:"lat20" ~latency:(Units.ms 20) ~objective:0.99 ();
        Slo.spec ~name:"lat100" ~latency:(Units.ms 100) ~objective:0.999 ();
      ]
    ();
  let r = Visor.Server.serve server requests in
  let csv =
    match Visor.Server.telemetry server with
    | Some ts -> Timeseries.to_csv ts
    | None -> ""
  in
  let alerts =
    String.concat "\n"
      (List.map Slo.render_alert (Visor.Server.slo_alerts server))
  in
  let prom = Obs.prometheus_string () in
  let tails = Obs.render_tails (Obs.tails ()) in
  Span.set_enabled Span.global false;
  Visor.Server.shutdown server;
  (Test_par.fingerprint r, csv, alerts, prom, tails)

let test_serving_telemetry_across_domains () =
  let requests = Test_par.requests_for ~seed:11 ~count:400 in
  let fp1, csv1, al1, prom1, tails1 =
    Test_par.with_domains 1 (fun () -> serve_with_telemetry requests)
  in
  let fp4, csv4, al4, prom4, tails4 =
    Test_par.with_domains 4 (fun () -> serve_with_telemetry requests)
  in
  Alcotest.(check string) "responses identical" fp1 fp4;
  Alcotest.(check string) "timeseries csv identical" csv1 csv4;
  Alcotest.(check string) "slo alert log identical" al1 al4;
  Alcotest.(check string) "prometheus export identical" prom1 prom4;
  Alcotest.(check string) "tail attribution identical" tails1 tails4;
  (* The artifacts carry real content, not vacuous equality. *)
  Alcotest.(check bool) "csv has windows" true
    (List.length (String.split_on_char '\n' (String.trim csv1)) > 1);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-endpoint series present" true
    (contains csv1 "endpoint=\"chain\"");
  Alcotest.(check bool) "prometheus histogram series present" true
    (contains prom1 "server_request_latency_ns_bucket");
  (* Satellite of this change: visor.e2e_ns must carry samples now that
     serving observes per-attempt execution time (it read zero before). *)
  Alcotest.(check bool) "visor e2e histogram populated" true
    (Metrics.histogram_count (Metrics.histogram "visor.e2e_ns") > 0)

let suite =
  [
    Alcotest.test_case "window boundary arithmetic" `Quick test_window_boundary;
    Alcotest.test_case "empty windows read zero" `Quick test_empty_windows;
    Alcotest.test_case "ring wrap and retention" `Quick
      test_ring_wrap_and_retention;
    Alcotest.test_case "gauge and dist semantics" `Quick
      test_gauge_and_dist_semantics;
    Alcotest.test_case "slo page and clear instants" `Quick
      test_slo_page_and_clear;
    Alcotest.test_case "slo latency goodness rule" `Quick test_slo_latency_rule;
    Alcotest.test_case "slo idle gap" `Quick test_slo_idle_gap;
    Alcotest.test_case "slo alert rendering" `Quick
      test_slo_render_deterministic;
    Alcotest.test_case "serving telemetry identical across domains" `Quick
      test_serving_telemetry_across_domains;
  ]
