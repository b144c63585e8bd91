(* Failure injection (the §3.1 retry-based fault tolerance) and the §9
   multi-node WFD split. *)

open Sim
open Alloystack_core
open Baselines

let node id = { Workflow.node_id = id; language = Workflow.Rust; instances = 1; required_modules = [] }

let single = Workflow.create_exn ~name:"w" ~nodes:[ node "f" ] ~edges:[]

let flaky_kernel ~failures =
  let remaining = ref failures in
  fun (ctx : Asstd.ctx) ~instance:_ ~total:_ ->
    if !remaining > 0 then begin
      decr remaining;
      failwith "injected fault"
    end;
    Asstd.println ctx "survived"

let config_with retry = { Visor.default_config with Visor.retry }

let test_function_retry_recovers () =
  (* Plan-driven flavour of the flaky kernel: the first two attempts
     crash via injected visor.fn.crash faults instead of a hand-rolled
     failure counter, so the fault schedule is part of the seed. *)
  let plan = Fault.create ~seed:31 () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.First 2);
  let ok (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "survived" in
  let config =
    { Visor.default_config with Visor.retry = Visor.Retry_function 3; fault = Some plan }
  in
  let report = Visor.run ~config ~workflow:single ~bindings:[ ("f", Visor.bind ok) ] () in
  Alcotest.(check string) "completed" "survived\n" report.Visor.stdout;
  Alcotest.(check int) "two restarts" 2 report.Visor.retries;
  Alcotest.(check int) "both injections fired" 2 (Fault.fired plan ~site:Fault.site_fn_crash)

let test_function_retry_exhausted () =
  let bindings = [ ("f", Visor.bind (flaky_kernel ~failures:99)) ] in
  match
    Visor.run ~config:(config_with (Visor.Retry_function 2)) ~workflow:single ~bindings ()
  with
  | _ -> Alcotest.fail "must fail after retries"
  | exception Visor.Function_failed { fn; attempts; _ } ->
      Alcotest.(check string) "which function" "f" fn;
      Alcotest.(check int) "attempts" 2 attempts

let test_no_retry_propagates () =
  let bindings = [ ("f", Visor.bind (flaky_kernel ~failures:1)) ] in
  match Visor.run ~workflow:single ~bindings () with
  | _ -> Alcotest.fail "must fail without retry"
  | exception Visor.Function_failed { attempts = 1; _ } -> ()

let test_workflow_retry_recovers () =
  let bindings = [ ("f", Visor.bind (flaky_kernel ~failures:1)) ] in
  let report =
    Visor.run ~config:(config_with (Visor.Retry_workflow 3)) ~workflow:single ~bindings ()
  in
  Alcotest.(check string) "completed on rerun" "survived\n" report.Visor.stdout;
  Alcotest.(check bool) "retried" true (report.Visor.retries >= 1)

let test_retry_reuses_slot () =
  (* Heap-unit recovery restarts the function in the *same* slot with a
     fresh heap. *)
  let slots = ref [] in
  let first = ref true in
  let kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    slots := ctx.Asstd.thread.Wfd.fn_slot :: !slots;
    if !first then begin
      first := false;
      failwith "crash"
    end
  in
  ignore
    (Visor.run
       ~config:(config_with (Visor.Retry_function 2))
       ~workflow:single
       ~bindings:[ ("f", Visor.bind kernel) ]
       ());
  match !slots with
  | [ a; b ] -> Alcotest.(check int) "same slot across attempts" b a
  | _ -> Alcotest.fail "expected exactly two attempts"

let test_respawn_gives_fresh_heap () =
  let proc_table = Hostos.Process.create_table () in
  let wfd =
    Wfd.create ~proc_table ~clock:(Clock.create ()) ~workflow_name:"t" ()
  in
  let t0 = Wfd.spawn_function_thread wfd ~clock:(Clock.create ()) in
  let heap = (Mem.Layout.function_heap 0).Mem.Layout.base in
  Mem.Address_space.store_byte wfd.Wfd.aspace ~pkru:t0.Wfd.pkru heap 'x';
  let t1 = Wfd.respawn_function_thread wfd ~slot:0 ~clock:(Clock.create ()) in
  Alcotest.(check int) "same slot" 0 t1.Wfd.fn_slot;
  Alcotest.(check char) "heap zeroed by recovery" '\000'
    (Mem.Address_space.load_byte wfd.Wfd.aspace ~pkru:t1.Wfd.pkru heap);
  match Wfd.respawn_function_thread wfd ~slot:9 ~clock:(Clock.create ()) with
  | _ -> Alcotest.fail "unspawned slot must fail"
  | exception Invalid_argument _ -> ()

let test_retry_preserves_intermediate_data () =
  (* Producer fills a slot; the flaky consumer crashes before touching
     the buffer, restarts, and still finds the data intact. *)
  let produce (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asbuffer.with_slot_raw ctx ~slot:"d" (Bytes.of_string "precious"))
  in
  let first = ref true in
  let consume (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    if !first then begin
      first := false;
      failwith "crash before consuming"
    end;
    let got = Asbuffer.from_slot_raw ctx ~slot:"d" in
    Asstd.println ctx (Bytes.to_string got)
  in
  let wf =
    Workflow.create_exn ~name:"w" ~nodes:[ node "p"; node "c" ] ~edges:[ ("p", "c") ]
  in
  let report =
    Visor.run
      ~config:(config_with (Visor.Retry_function 2))
      ~workflow:wf
      ~bindings:[ ("p", Visor.bind produce); ("c", Visor.bind consume) ]
      ()
  in
  Alcotest.(check string) "data intact across restart" "precious\n" report.Visor.stdout

let test_injected_crash_preserves_intermediate_data () =
  (* Same §3.1 claim, driven by a fault plan: visor.fn.crash occurrence
     1 is the producer (no fire), occurrence 2 is the consumer's first
     attempt, which crashes.  The producer's AsBuffer slot lives in the
     libos heap and must survive the consumer's respawn. *)
  let plan = Fault.create ~seed:33 () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.Nth 2);
  let produce (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    ignore (Asbuffer.with_slot_raw ctx ~slot:"d" (Bytes.of_string "precious"))
  in
  let consume (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.println ctx (Bytes.to_string (Asbuffer.from_slot_raw ctx ~slot:"d"))
  in
  let wf =
    Workflow.create_exn ~name:"w" ~nodes:[ node "p"; node "c" ] ~edges:[ ("p", "c") ]
  in
  let config =
    { Visor.default_config with Visor.retry = Visor.Retry_function 2; fault = Some plan }
  in
  let report =
    Visor.run ~config ~workflow:wf
      ~bindings:[ ("p", Visor.bind produce); ("c", Visor.bind consume) ]
      ()
  in
  Alcotest.(check string) "buffer survives injected crash" "precious\n" report.Visor.stdout;
  Alcotest.(check int) "one restart" 1 report.Visor.retries;
  Alcotest.(check int) "the planned crash fired" 1 (Fault.fired plan ~site:Fault.site_fn_crash)

let test_fault_isolation_between_wfds () =
  (* One WFD crashing leaves the visor able to run other WFDs. *)
  let bad = [ ("f", Visor.bind (flaky_kernel ~failures:1)) ] in
  (try ignore (Visor.run ~workflow:single ~bindings:bad ()) with
  | Visor.Function_failed _ -> ());
  let ok_kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.println ctx "fine" in
  let report =
    Visor.run ~workflow:single ~bindings:[ ("f", Visor.bind ok_kernel) ] ()
  in
  Alcotest.(check string) "other WFD unaffected" "fine\n" report.Visor.stdout

let test_retry_costs_time () =
  let bindings_flaky = [ ("f", Visor.bind (flaky_kernel ~failures:1)) ] in
  let bindings_ok = [ ("f", Visor.bind (flaky_kernel ~failures:0)) ] in
  let slow =
    Visor.run ~config:(config_with (Visor.Retry_function 2)) ~workflow:single
      ~bindings:bindings_flaky ()
  in
  let fast =
    Visor.run ~config:(config_with (Visor.Retry_function 2)) ~workflow:single
      ~bindings:bindings_ok ()
  in
  Alcotest.(check bool) "restart charged" true (Units.( > ) slow.Visor.e2e fast.Visor.e2e)

(* --- multi-node split --- *)

let test_split_stages_shape () =
  let l = [ 1; 2; 3; 4; 5 ] in
  let parts = As_multinode.split_stages l ~parts:2 in
  Alcotest.(check (list (list int))) "balanced split" [ [ 1; 2 ]; [ 3; 4; 5 ] ] parts;
  Alcotest.(check (list (list int))) "more parts than stages"
    [ [ 1 ]; [ 2 ] ]
    (As_multinode.split_stages [ 1; 2 ] ~parts:5);
  match As_multinode.split_stages l ~parts:0 with
  | _ -> Alcotest.fail "parts 0 invalid"
  | exception Invalid_argument _ -> ()

let split_concat_property =
  QCheck.Test.make ~name:"split_stages: concat preserves order" ~count:200
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (l, parts) ->
      let split = As_multinode.split_stages l ~parts in
      List.concat split = l
      && (l = [] || List.length split = Stdlib.min parts (List.length l))
      && List.for_all (fun g -> g <> []) split)

let test_multinode_pipe_validates () =
  let app = Workloads.Pipe_app.app ~seed:91 ~size:(256 * 1024) in
  List.iter
    (fun nodes ->
      let m = (As_multinode.make ~nodes ()).Platform.run app in
      Platform.check_validated m)
    [ 1; 2 ]

let test_multinode_chain_validates () =
  let app = Workloads.Function_chain.app ~seed:92 ~payload:(128 * 1024) ~length:6 in
  List.iter
    (fun nodes ->
      let m = (As_multinode.make ~nodes ()).Platform.run app in
      Platform.check_validated m)
    [ 1; 2; 3 ]

let test_multinode_wordcount_validates () =
  let app = Workloads.Wordcount.app ~seed:93 ~size:(128 * 1024) ~instances:2 in
  let m = (As_multinode.make ~nodes:2 ()).Platform.run app in
  Platform.check_validated m

let test_multinode_network_penalty () =
  (* Crossing WFDs costs network time: more nodes, slower chain. *)
  let app = Workloads.Function_chain.app ~seed:94 ~payload:(4 * 1024 * 1024) ~length:6 in
  let e2e nodes = ((As_multinode.make ~nodes ()).Platform.run app).Platform.e2e in
  let one = e2e 1 and three = e2e 3 in
  Alcotest.(check bool) "3 nodes slower than 1" true (Units.( > ) three one);
  (* The penalty is at least the bridge cost of the boundary payloads. *)
  Alcotest.(check bool) "penalty at least one bridge hop" true
    (Units.( > ) (Units.sub three one) (As_multinode.bridge_cost (4 * 1024 * 1024)))

let test_bridge_cost_monotonic () =
  Alcotest.(check bool) "grows with size" true
    (Units.( > )
       (As_multinode.bridge_cost (1024 * 1024))
       (As_multinode.bridge_cost 1024))

let suite =
  [
    Alcotest.test_case "function retry recovers" `Quick test_function_retry_recovers;
    Alcotest.test_case "function retry exhausted" `Quick test_function_retry_exhausted;
    Alcotest.test_case "no retry propagates" `Quick test_no_retry_propagates;
    Alcotest.test_case "workflow retry recovers" `Quick test_workflow_retry_recovers;
    Alcotest.test_case "retry reuses slot" `Quick test_retry_reuses_slot;
    Alcotest.test_case "respawn gives fresh heap" `Quick test_respawn_gives_fresh_heap;
    Alcotest.test_case "retry preserves intermediate data" `Quick test_retry_preserves_intermediate_data;
    Alcotest.test_case "injected crash preserves intermediate data" `Quick
      test_injected_crash_preserves_intermediate_data;
    Alcotest.test_case "fault isolation between WFDs" `Quick test_fault_isolation_between_wfds;
    Alcotest.test_case "retry costs time" `Quick test_retry_costs_time;
    Alcotest.test_case "split_stages shape" `Quick test_split_stages_shape;
    QCheck_alcotest.to_alcotest split_concat_property;
    Alcotest.test_case "multinode pipe validates" `Quick test_multinode_pipe_validates;
    Alcotest.test_case "multinode chain validates" `Quick test_multinode_chain_validates;
    Alcotest.test_case "multinode wordcount validates" `Quick test_multinode_wordcount_validates;
    Alcotest.test_case "multinode network penalty" `Quick test_multinode_network_penalty;
    Alcotest.test_case "bridge cost monotonic" `Quick test_bridge_cost_monotonic;
  ]
