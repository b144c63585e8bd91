(* Differential tests for the percentile sketch (Sim.Sketch): the
   merging t-digest against exact order statistics over seeded
   populations with different shapes, plus the serve_fold contract the
   sketch enables — byte-identical responses to serve, and O(1) live
   memory over a 100k-request streamed fold. *)

open Alloystack_core
open Sim

(* --- Sketch vs exact order statistics ------------------------------ *)

let populations =
  [
    ("uniform", fun rng -> Rng.float rng 1000.0);
    ("exponential", fun rng -> Rng.exponential rng ~mean:50.0);
    (* Two well-separated modes, 70/30: stresses interpolation across
       density jumps without parking a tested quantile inside the
       empty gap (where any estimator's answer is arbitrary). *)
    ( "bimodal",
      fun rng ->
        if Rng.float rng 1.0 < 0.7 then Rng.gaussian rng ~mu:100.0 ~sigma:10.0
        else Rng.gaussian rng ~mu:500.0 ~sigma:25.0 );
  ]

let n = 10_000

let test_sketch_differential () =
  List.iter
    (fun (name, draw) ->
      let rng = Rng.create 1234 in
      let exact = Stats.create () in
      let td = Sketch.Tdigest.create () in
      for _ = 1 to n do
        let x = draw rng in
        Stats.add exact x;
        Sketch.Tdigest.add td x
      done;
      let check_rel what tol got want =
        let rel = Float.abs (got -. want) /. Float.max 1e-9 (Float.abs want) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %.3f vs exact %.3f (rel %.4f <= %.2f)" name
             what got want rel tol)
          true (rel <= tol)
      in
      (* The t-digest keeps tails near-exact; 2% everywhere matches the
         bound the serving bench asserts. *)
      check_rel "tdigest p50" 0.02
        (Sketch.Tdigest.percentile td 50.0)
        (Stats.percentile exact 50.0);
      check_rel "tdigest p90" 0.02
        (Sketch.Tdigest.percentile td 90.0)
        (Stats.percentile exact 90.0);
      check_rel "tdigest p99" 0.02
        (Sketch.Tdigest.percentile td 99.0)
        (Stats.percentile exact 99.0))
    populations

let test_sketch_small_and_merge () =
  (* A single observation is every quantile, and an empty sketch
     answers nan. *)
  let one = Sketch.Tdigest.create () in
  Alcotest.(check bool) "empty digest is nan" true
    (Float.is_nan (Sketch.Tdigest.percentile one 50.0));
  Sketch.Tdigest.add one 3.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "one sample is p%.0f" p)
        3.0
        (Sketch.Tdigest.percentile one p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* Merging two digests covers the same population as feeding one. *)
  let rng = Rng.create 99 in
  let whole = Sketch.Tdigest.create () in
  let a = Sketch.Tdigest.create () in
  let b = Sketch.Tdigest.create () in
  for i = 1 to 20_000 do
    let x = Rng.exponential rng ~mean:10.0 in
    Sketch.Tdigest.add whole x;
    Sketch.Tdigest.add (if i mod 2 = 0 then a else b) x
  done;
  Sketch.Tdigest.merge_into ~src:b ~dst:a;
  Alcotest.(check (float 1e-9)) "merge preserves count"
    (Sketch.Tdigest.count whole) (Sketch.Tdigest.count a);
  List.iter
    (fun p ->
      let w = Sketch.Tdigest.percentile whole p in
      let m = Sketch.Tdigest.percentile a p in
      Alcotest.(check bool)
        (Printf.sprintf "merged p%.0f %.3f ~ whole %.3f" p m w)
        true
        (Float.abs (m -. w) /. Float.max 1e-9 w <= 0.03))
    [ 50.0; 90.0; 99.0 ]

let test_sketched_reads_are_pure () =
  (* Reading percentiles mid-stream must not change later estimates: a
     soak reads its sketch at every snapshot and must still agree bit
     for bit with a server that reads its own only at the end. *)
  let rng = Rng.create 5 in
  let read = Stats.sketched () and quiet = Stats.sketched () in
  for i = 1 to 5_000 do
    let x = Rng.exponential rng ~mean:20.0 in
    Stats.add read x;
    Stats.add quiet x;
    if i mod 333 = 0 then ignore (Stats.percentile read 50.0 +. Stats.percentile read 99.0)
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f" p)
        (Stats.percentile quiet p) (Stats.percentile read p))
    [ 50.0; 90.0; 99.0 ];
  let kept = ref 0 in
  Stats.iter (fun _ -> incr kept) read;
  Alcotest.(check int) "no raw samples kept" 0 !kept

(* --- serve_fold contract ------------------------------------------- *)

let test_serve_fold_matches_serve () =
  let count = 300 in
  let seed = 7 in
  let requests = Test_par.requests_for ~seed ~count in
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
  let want = with_server (fun s -> Visor.Server.serve s requests) in
  let next =
    let remaining = ref requests in
    fun () ->
      match !remaining with
      | [] -> None
      | r :: tl ->
          remaining := tl;
          Some r
  in
  let folded, s =
    with_server (fun srv ->
        Visor.Server.serve_fold srv next ~init:[] ~f:(fun acc r -> r :: acc))
  in
  (* Responses are the collected list's, byte for byte, in completion
     order; the summary is the same record. *)
  let want_responses, want = want in
  Alcotest.(check bool) "responses identical" true (List.rev folded = want_responses);
  Alcotest.(check bool) "summary identical" true (s = want);
  Alcotest.(check bool) "not sketched by default" false
    s.Visor.Server.sm_latency_sketched

let test_fold_live_words_flat () =
  (* A 100k-request fold that retains nothing must run in O(window +
     inflight) live words: the live-heap reading must not grow with
     completions.  A reintroduced response list would add >1M words
     between the first and last probe. *)
  let count = 100_000 in
  let seed = 7 in
  let qps = 700.0 in
  let eps =
    Array.of_list (List.map (fun (e, _, _) -> e) Test_par.endpoints_spec)
  in
  let next =
    Baselines.Loadgen.request_stream ~seed ~qps ~endpoints:eps ~count ()
  in
  Metrics.set_raw_sample_every ~seed 64;
  let server =
    Visor.Server.create ~sample_every:64 ~sample_seed:seed ~sketch_latency:true ()
  in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    Test_par.endpoints_spec;
  let seen = ref 0 in
  let probes = ref [] in
  let (), s =
    Visor.Server.serve_fold server
      (fun () ->
        match next () with
        | None -> None
        | Some (endpoint, arrival) -> Some { Visor.Server.endpoint; arrival })
      ~init:()
      ~f:(fun () _ ->
        incr seen;
        if !seen mod 25_000 = 0 then begin
          Gc.full_major ();
          probes := (Gc.stat ()).Gc.live_words :: !probes
        end)
  in
  Visor.Server.shutdown server;
  Metrics.set_raw_sample_every 1;
  Alcotest.(check int) "all completed" count s.Visor.Server.sm_completed;
  Alcotest.(check bool) "sketched percentiles" true s.Visor.Server.sm_latency_sketched;
  match List.rev !probes with
  | first :: _ :: _ as all ->
      let last = List.nth all (List.length all - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "live words flat across fold (%d -> %d)" first last)
        true
        (last - first < 512_000)
  | _ -> Alcotest.fail "expected at least two live-word probes"

let suite =
  [
    Alcotest.test_case "t-digest vs exact percentiles" `Quick
      test_sketch_differential;
    Alcotest.test_case "sketched reads leave later estimates alone" `Quick
      test_sketched_reads_are_pure;
    Alcotest.test_case "small-n exactness and digest merge" `Quick
      test_sketch_small_and_merge;
    Alcotest.test_case "serve_fold == serve" `Quick test_serve_fold_matches_serve;
    Alcotest.test_case "100k fold: live words O(1)" `Slow test_fold_live_words_flat;
  ]
