(* Tests for Baselines.Soak, the time-bounded soak runner: its
   flat-memory verdict on synthetic snapshot lists, a short soak of the
   CLI's serve chain whose snapshots must not depend on the host domain
   count, and soaks whose sketch must agree with the server's summary
   bit for bit. *)

open Sim
open Alloystack_core
module Soak = Baselines.Soak

let snapshot live =
  {
    Soak.sn_at = 0;
    sn_completed = 0;
    sn_inflight = 0;
    sn_live_words = live;
    sn_p50 = Units.zero;
    sn_p99 = Units.zero;
    sn_alerts = [];
  }

let verdict lives = Soak.memory_verdict (List.map snapshot lives)

(* With a first reading of 4M words the bound is 1.25 * 4M + 1M = 6M. *)
let test_verdict_at_bound () =
  match verdict [ 4_000_000; 1; 6_000_000; 5_000_000 ] with
  | Some { Soak.first = 4_000_000; worst = 6_000_000; flat = true } -> ()
  | _ -> Alcotest.fail "a second-half reading exactly at the bound is flat"

let test_verdict_past_bound () =
  (match verdict [ 4_000_000; 1; 6_000_001; 5_000_000 ] with
  | Some { Soak.worst = 6_000_001; flat = false; _ } -> ()
  | _ -> Alcotest.fail "one word past the bound is growth");
  (* Only the second half is judged: a first-half spike is warm-up. *)
  match verdict [ 4_000_000; 9_000_000; 5_000_000; 5_000_000 ] with
  | Some { Soak.worst = 5_000_000; flat = true; _ } -> ()
  | _ -> Alcotest.fail "a first-half spike must not count"

let test_verdict_needs_two () =
  Alcotest.(check bool) "no snapshots" true (verdict [] = None);
  Alcotest.(check bool) "one snapshot" true (verdict [ 9_000_000 ] = None)

let seed = 42

(* A soak of [seconds] at [qps] over a sketched server sampled 1-in-64,
   as [alloystack serve --soak --sample-every 64] runs it. *)
let soak ~register ~endpoints ~qps ~seconds domains =
  Test_par.with_domains domains (fun () ->
      Metrics.set_raw_sample_every ~seed 64;
      Fun.protect
        ~finally:(fun () -> Metrics.set_raw_sample_every 1)
        (fun () ->
          let server =
            Visor.Server.create ~sample_every:64 ~sample_seed:seed ~sketch_latency:true ()
          in
          register server;
          Soak.enable_telemetry server ~seconds
            ~slos:[ Slo.spec ~name:"steady" ~latency:(Units.ms 40) ~objective:0.999 () ];
          let r = Soak.run server ~seed ~qps ~endpoints ~seconds in
          Visor.Server.shutdown server;
          r))

(* The soak fed its sketch the values the server fed its own, in the
   same order, and read it at every snapshot without disturbing it:
   after the last response both report the same percentiles. *)
let check_sketch_agrees (r : Soak.result) =
  let s = r.Soak.summary in
  Alcotest.(check bool) "summary is sketched" true s.Visor.Server.sm_latency_sketched;
  Alcotest.(check int64) "p50 agrees with the summary"
    (Units.to_ns s.Visor.Server.sm_p50_latency)
    (Units.to_ns (Stats.percentile_time r.Soak.latency 50.0));
  Alcotest.(check int64) "p99 agrees with the summary"
    (Units.to_ns s.Visor.Server.sm_p99_latency)
    (Units.to_ns (Stats.percentile_time r.Soak.latency 99.0));
  Alcotest.(check int) "one latency per ok response" s.Visor.Server.sm_completed
    (Stats.count r.Soak.latency)

(* The CLI's serve chain: one 3-stage Rust chain of 5 ms stages. *)
let register_chain server =
  let wf = Workflow.chain ~name:"serve-chain" 3 in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms 5) in
  let bind (n : Workflow.node) = (n.Workflow.node_id, Visor.bind kernel) in
  Visor.Server.register server ~endpoint:"chain" ~workflow:wf
    ~bindings:(List.map bind wf.Workflow.nodes) ()

let test_soak_chain () =
  let run =
    soak ~register:register_chain ~endpoints:[| "chain" |] ~qps:10.0 ~seconds:2000
  in
  let r1 = run 1 and r2 = run 2 in
  let virtual_fields (sn : Soak.snapshot) =
    ( sn.Soak.sn_at,
      sn.Soak.sn_completed,
      sn.Soak.sn_inflight,
      Units.to_ns sn.Soak.sn_p50,
      Units.to_ns sn.Soak.sn_p99,
      List.map Slo.render_alert sn.Soak.sn_alerts )
  in
  Alcotest.(check int) "a snapshot every 1/12th" 12 (List.length r1.Soak.snapshots);
  Alcotest.(check bool) "snapshots identical at 1 and 2 domains" true
    (List.map virtual_fields r1.Soak.snapshots = List.map virtual_fields r2.Soak.snapshots);
  Alcotest.(check bool) "summaries identical at 1 and 2 domains" true
    (r1.Soak.summary = r2.Soak.summary);
  check_sketch_agrees r1

(* The chain's latencies are all equal, which any sketch reports
   exactly; three tenants with queueing give the sketch a real
   distribution to compress between snapshot reads. *)
let test_soak_mixed_sketch_agrees () =
  let register server =
    List.iter
      (fun (endpoint, workflow, bindings) ->
        Visor.Server.register server ~endpoint ~workflow ~bindings ())
      Test_par.endpoints_spec
  in
  let endpoints = Array.of_list (List.map (fun (e, _, _) -> e) Test_par.endpoints_spec) in
  check_sketch_agrees (soak ~register ~endpoints ~qps:700.0 ~seconds:30 1)

let suite =
  [
    Alcotest.test_case "verdict: flat at 1.25x first + 1e6" `Quick test_verdict_at_bound;
    Alcotest.test_case "verdict: growth past the bound" `Quick test_verdict_past_bound;
    Alcotest.test_case "verdict: fewer than two snapshots" `Quick test_verdict_needs_two;
    Alcotest.test_case "CLI chain soak: domain-independent, sketch agrees" `Quick
      test_soak_chain;
    Alcotest.test_case "mixed soak: sketch agrees with summary" `Quick
      test_soak_mixed_sketch_agrees;
  ]
