(* Tier-1 scale lock-in: a 50k-request warm serve streamed through the
   server must complete with zero failures, bounded virtual memory and
   a byte-identical response stream whatever the host domain count —
   the contract the 10^5-request bench leg relies on. *)

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
     same summary record. *)
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
    [ 1; 17; 300; 4096 ]

let suite =
  [
    Alcotest.test_case "50k warm serve: complete, bounded, identical across domains"
      `Slow test_scale_50k;
    Alcotest.test_case "serve_fold == serve at every window" `Quick
      test_fold_matches_serve;
  ]
