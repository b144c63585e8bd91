(* Tests of the benchmark's own code: metric names, the layer
   arithmetic, the reference-speed scaling, and every workload at a tiny size on pool widths 1 and 2,
   traced and untraced, with identical fingerprints. *)

open Perfbench

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

let names () =
  let all = List.map fst (Bench.end_to_end @ Bench.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Layers.valid_name n)) all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq String.compare all));
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid " ^ bad) false (Layers.valid_name bad))
    [ ""; "a b"; "_x"; ".x"; "x/y"; "é"; String.make 65 'a' ]

let entry ?(minor = 0.0) name count ns =
  {
    Sim.Hotspot.hs_name = name;
    hs_count = count;
    hs_total_ns = ns;
    hs_minor_words = minor;
    hs_major_words = 0.0;
  }

let arithmetic () =
  let entries =
    [
      entry "serve.prologue" 10 100.0;
      entry "serve.trajectory" 40 600.0;
      entry ~minor:50.0 "serve.merge" 30 250.0;
      entry "wfd.acquire" 9 5.0;
      entry "wfd.clone" 1 5.0;
    ]
  in
  check_float "section ns" 600.0 (Layers.section_ns entries "serve.trajectory");
  check_float "missing section" 0.0 (Layers.section_ns entries "boot");
  Alcotest.(check int) "section count" 30 (Layers.section_count entries "serve.merge");
  check_float "section words" 50.0 (Layers.section_words entries "serve.merge");
  let parts = List.map (Layers.section_ns entries) [ "serve.prologue"; "serve.trajectory"; "serve.merge" ] in
  check_float "residual" 50.0 (Layers.residual ~span:1000.0 parts);
  check_float "residual share" 0.05 (Layers.share (Layers.residual ~span:1000.0 parts) 1000.0);
  let recycled = Layers.section_count entries "wfd.acquire" |> float_of_int in
  let cloned = Layers.section_count entries "wfd.clone" |> float_of_int in
  check_float "recycle ratio" 0.9 (Layers.share recycled (recycled +. cloned));
  check_float "ratio over nothing" 0.0 (Layers.share 0.0 0.0);
  (* serial = span - trajectory = 400 of 1000 *)
  let serial_frac = Layers.share (1000.0 -. 600.0) 1000.0 in
  check_float "amdahl 4" (1.0 /. (0.4 +. (0.6 /. 4.0))) (Layers.amdahl ~serial_frac 4);
  check_float "amdahl all parallel" 4.0 (Layers.amdahl ~serial_frac:0.0 4);
  check_float "amdahl all serial" 1.0 (Layers.amdahl ~serial_frac:1.0 4);
  check_float "median odd" 2.0 (Layers.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Layers.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "p50" 2.5 (Layers.percentile [ 1.0; 2.0; 3.0; 4.0 ] 50.0);
  check_float "p99" 3.97 (Layers.percentile [ 1.0; 2.0; 3.0; 4.0 ] 99.0)

let yardstick () =
  let n = Yardstick.nominal_ns in
  let r = Yardstick.reading [| 1e6; 3e6 |] [| n; n; n |] in
  check_float "raw" 4e-3 r.Yardstick.raw_s;
  check_float "at the reference speed" 4e-3 r.scaled_s;
  let r = Yardstick.reading [| 1e6; 3e6 |] [| 2.0 *. n; 2.0 *. n; 2.0 *. n |] in
  check_float "at half the reference speed" 2e-3 r.scaled_s;
  let r = Yardstick.reading [| 1e6; 1e6; 1e6 |] [| n; n; 10.0 *. n; n |] in
  check_float "one slow job is outvoted" 3e-3 r.scaled_s;
  (* A job before the span, one at each due tick, one after it. *)
  let (), r = Yardstick.measure ~every_ns:0.0 (fun () -> for _ = 1 to 5 do Yardstick.tick () done) in
  Alcotest.(check int) "jobs" 7 r.jobs

(* Tiny inputs: a few hundred requests, or workflow inputs of ~40 KiB. *)
let tiny = function Bench.Workflows -> 1.0 /. 256.0 | Bench.Serve_warm | Bench.Serve_cold -> 0.01

let run workload ~domains ~trace =
  Bench.run
    {
      Bench.workload;
      seed = 7;
      seconds = 0.0;
      trace;
      domains;
      scale = tiny workload;
      min_reps = 2;
    }

let json_ok r ~trace =
  match Alloystack_core.Jsonlite.parse_result (Bench.to_json ~trace r) with
  | Ok j ->
      let metrics = Alloystack_core.Jsonlite.(get_obj (member "metrics" j)) in
      let want = if trace then Bench.per_layer else Bench.end_to_end in
      Alcotest.(check (list string)) "metrics in the result line" (List.map fst want) (List.map fst metrics)
  | Error e -> Alcotest.fail ("result line is not JSON: " ^ e)

let workload w () =
  let w1 = run w ~domains:1 ~trace:false in
  let w2 = run w ~domains:2 ~trace:false in
  let tr = run w ~domains:2 ~trace:true in
  List.iter
    (fun (label, (r : Bench.result)) ->
      Alcotest.(check bool) (label ^ " correct") true r.Bench.correct;
      Alcotest.(check int) (label ^ " failed") 0 r.failed;
      Alcotest.(check bool) (label ^ " attempted") true (r.attempted > 0))
    [ ("width 1", w1); ("width 2", w2); ("traced", tr) ];
  Alcotest.(check string) "fingerprint across widths" w1.Bench.fingerprint w2.Bench.fingerprint;
  Alcotest.(check string) "fingerprint traced" w1.Bench.fingerprint tr.Bench.fingerprint;
  let virt r = List.filter (fun (n, _) -> String.starts_with ~prefix:"virt_" n) r.Bench.metrics in
  Alcotest.(check (list (pair string (float 0.0)))) "virtual metrics across widths" (virt w1) (virt w2);
  List.iter (fun (_, v) -> Alcotest.(check bool) "virtual metric positive" true (v > 0.0)) (virt w1);
  json_ok w1 ~trace:false;
  json_ok tr ~trace:true

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "metric names" `Quick names;
          Alcotest.test_case "layer arithmetic" `Quick arithmetic;
          Alcotest.test_case "reference speed" `Quick yardstick;
        ]
        @ List.map
            (fun (name, w) -> Alcotest.test_case ("tiny " ^ name) `Quick (workload w))
            Bench.workloads );
    ]
