(* Sampled observability: 1-in-k sampling must leave every virtual
   result untouched (responses, latencies, counters), keep exports
   byte-identical at k = 1, and keep the sampled-span population
   exactly the deterministic stride the seed selects. *)

open Sim
open Alloystack_core

let with_domains = Test_par.with_domains

let reset_observability () =
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ()

let serve_sampled ?sample_every ?sample_seed ~requests () =
  let server = Visor.Server.create ?sample_every ?sample_seed () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    Test_par.endpoints_spec;
  let r = Visor.Server.serve server requests in
  Visor.Server.shutdown server;
  r

let observe ?sample_every ?sample_seed ~requests () =
  reset_observability ();
  Span.set_enabled Span.global true;
  let r = serve_sampled ?sample_every ?sample_seed ~requests () in
  let spans = Span.spans Span.global in
  let request_roots =
    List.filter
      (fun (sp : Span.span) -> String.equal sp.Span.sp_category "request")
      (Span.roots Span.global)
  in
  let tr = Obs.trace_json_string () in
  let me = Obs.metrics_json_string () in
  Span.set_enabled Span.global false;
  reset_observability ();
  (r, List.length spans, List.length request_roots, tr, me)

let fingerprint = Test_par.fingerprint
let summary = Test_par.summary

let test_k1_identical () =
  (* sample_every:1 must be bit-identical to not asking for sampling at
     all — same responses, same span tree, same trace and metrics
     exports. *)
  let requests = Test_par.requests_for ~seed:7 ~count:60 in
  let r0, nsp0, nreq0, tr0, me0 = observe ~requests () in
  let r1, nsp1, nreq1, tr1, me1 =
    observe ~sample_every:1 ~sample_seed:99 ~requests ()
  in
  Alcotest.(check string) "responses" (fingerprint r0 ^ summary r0)
    (fingerprint r1 ^ summary r1);
  Alcotest.(check int) "span count" nsp0 nsp1;
  Alcotest.(check int) "request roots" nreq0 nreq1;
  Alcotest.(check string) "trace export" tr0 tr1;
  Alcotest.(check string) "metrics export" me0 me1

let test_sampled_virtuals_exact () =
  (* Sampling must not perturb any virtual output: latencies come from
     the responses themselves, not from spans. *)
  let requests = Test_par.requests_for ~seed:3 ~count:80 in
  let r1, _, _, _, _ = observe ~requests () in
  let rk, _, _, _, _ = observe ~sample_every:8 ~sample_seed:3 ~requests () in
  Alcotest.(check string) "responses identical under sampling"
    (fingerprint r1 ^ summary r1)
    (fingerprint rk ^ summary rk);
  Alcotest.(check int64) "p99 identical"
    (Units.to_ns (snd r1).Visor.Server.sm_p99_latency)
    (Units.to_ns (snd rk).Visor.Server.sm_p99_latency)

let test_sampled_span_population () =
  (* The sampled population is an exact deterministic stride over
     arrival indices: floor counting, no randomness. *)
  let count = 60 in
  let requests = Test_par.requests_for ~seed:7 ~count in
  List.iter
    (fun (k, seed) ->
      let expected = ref 0 in
      let phase = ((seed mod k) + k) mod k in
      for i = 0 to count - 1 do
        if i mod k = phase then incr expected
      done;
      let _, _, nreq, _, _ =
        observe ~sample_every:k ~sample_seed:seed ~requests ()
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d seed=%d request-span count" k seed)
        !expected nreq)
    [ (4, 7); (4, 2); (7, 0); (16, 5); (60, 59) ]

let test_sampling_across_domains () =
  (* Sampling composes with the domain pool: same sampled span count,
     same exports, any domain width. *)
  let requests = Test_par.requests_for ~seed:11 ~count:48 in
  let run domains =
    with_domains domains (fun () ->
        observe ~sample_every:6 ~sample_seed:11 ~requests ())
  in
  let r1, nsp1, nreq1, tr1, me1 = run 1 in
  let r4, nsp4, nreq4, tr4, me4 = run 4 in
  Alcotest.(check string) "responses" (fingerprint r1 ^ summary r1)
    (fingerprint r4 ^ summary r4);
  Alcotest.(check int) "span count" nsp1 nsp4;
  Alcotest.(check int) "request roots" nreq1 nreq4;
  Alcotest.(check string) "trace export" tr1 tr4;
  Alcotest.(check string) "metrics export" me1 me4

let test_metrics_raw_thinning () =
  (* Thinned reservoirs keep aggregates exact and percentiles close:
     stride-sampling a smooth sequence cannot move the median much. *)
  let in_registry f =
    let saved = Metrics.current () in
    Metrics.set_current (Metrics.create_registry ());
    Fun.protect ~finally:(fun () -> Metrics.set_current saved) f
  in
  let feed () =
    let h = Metrics.histogram "thin_test" in
    for i = 1 to 10_000 do
      Metrics.observe h (float_of_int i)
    done;
    let snap = Metrics.snapshot () in
    List.find
      (fun (s : Metrics.histo_snapshot) -> String.equal s.Metrics.hs_name "thin_test")
      snap.Metrics.snap_histograms
  in
  let exact = in_registry feed in
  let thinned =
    in_registry (fun () ->
        Metrics.set_raw_sample_every ~seed:3 100;
        feed ())
  in
  Alcotest.(check int) "count exact" exact.Metrics.hs_count thinned.Metrics.hs_count;
  Alcotest.(check (float 0.0)) "sum exact" exact.Metrics.hs_sum thinned.Metrics.hs_sum;
  Alcotest.(check (float 0.0)) "min exact" exact.Metrics.hs_min thinned.Metrics.hs_min;
  Alcotest.(check (float 0.0)) "max exact" exact.Metrics.hs_max thinned.Metrics.hs_max;
  let close p a b =
    let rel = Float.abs (a -. b) /. Float.max 1.0 (Float.abs a) in
    if rel > 0.05 then
      Alcotest.failf "%s: exact %.1f vs thinned %.1f (rel %.3f)" p a b rel
  in
  close "p50" exact.Metrics.hs_p50 thinned.Metrics.hs_p50;
  close "p99" exact.Metrics.hs_p99 thinned.Metrics.hs_p99

let test_merge_rejects_thinned_shard () =
  (* Shards are replayed sample by sample.  A shard whose reservoir was
     thinned cannot be, so merging it is an error, not a merge by
     aggregates. *)
  let saved = Metrics.current () in
  let in_registry r f =
    Metrics.set_current r;
    Fun.protect ~finally:(fun () -> Metrics.set_current saved) f
  in
  let shard = Metrics.create_registry () in
  in_registry shard (fun () ->
      Metrics.set_raw_sample_every ~seed:1 4;
      let h = Metrics.histogram "thinned_shard" in
      for i = 1 to 100 do
        Metrics.observe h (float_of_int i)
      done);
  in_registry (Metrics.create_registry ()) (fun () ->
      (match Metrics.merge_into shard with
      | () -> Alcotest.fail "a thinned shard must be rejected"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "nothing merged" 0
        (Metrics.histogram_count (Metrics.histogram "thinned_shard")))

let test_percentiles_independent_of_snapshots () =
  (* A thinned histogram answers percentiles from its t-digest.  Reading
     a snapshot midway must not change what a later snapshot reports. *)
  let final ~every_snapshot =
    let saved = Metrics.current () in
    Metrics.set_current (Metrics.create_registry ());
    Fun.protect
      ~finally:(fun () -> Metrics.set_current saved)
      (fun () ->
        Metrics.set_raw_sample_every ~seed:1 4;
        let h = Metrics.histogram "snap_test" in
        let rng = Rng.create 5 in
        for i = 1 to 1_000 do
          Metrics.observe h (Rng.exponential rng ~mean:90.0);
          if every_snapshot && i mod 100 = 0 then ignore (Metrics.snapshot ())
        done;
        let snap = Metrics.snapshot () in
        let s = List.hd snap.Metrics.snap_histograms in
        [ s.Metrics.hs_p50; s.Metrics.hs_p90; s.Metrics.hs_p99 ])
  in
  Alcotest.(check (list (float 0.0))) "p50/p90/p99"
    (final ~every_snapshot:false) (final ~every_snapshot:true)

let suite =
  [
    Alcotest.test_case "sample_every 1 is byte-identical" `Quick test_k1_identical;
    Alcotest.test_case "sampling leaves virtual results exact" `Quick
      test_sampled_virtuals_exact;
    Alcotest.test_case "sampled span population is exact" `Quick
      test_sampled_span_population;
    Alcotest.test_case "sampling deterministic across domains" `Quick
      test_sampling_across_domains;
    Alcotest.test_case "metrics reservoir thinning" `Quick test_metrics_raw_thinning;
    Alcotest.test_case "merge rejects a thinned shard" `Quick
      test_merge_rejects_thinned_shard;
    Alcotest.test_case "percentiles independent of earlier snapshots" `Quick
      test_percentiles_independent_of_snapshots;
  ]
