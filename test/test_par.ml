(* Tests for Sim.Par, the host domain pool: virtual-time outputs must
   be bit-identical whatever the domain count, shared caches must stay
   coherent under concurrent clients, and domain-local scheduler
   scratch pools must stay private.  Domain counts deliberately
   exceed the machine's cores — the determinism contract is independent
   of physical parallelism. *)

open Sim
open Alloystack_core

let with_domains n f =
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains 1) f

let reset_observability () =
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ()

(* --- Par.run ordering and error routing --------------------------- *)

let test_run_submission_order () =
  with_domains 8 (fun () ->
      let results = Par.run (Array.init 64 (fun i () -> i * i)) in
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        results)

let test_run_first_error_wins () =
  (* Whatever domain finishes first, the exception that escapes is the
     lowest submission index's. *)
  with_domains 8 (fun () ->
      let task i () = if i mod 3 = 0 && i > 0 then failwith (string_of_int i) else i in
      match Par.run (Array.init 32 (fun i -> task i)) with
      | _ -> Alcotest.fail "expected a failure"
      | exception Failure msg -> Alcotest.(check string) "lowest index" "3" msg)

(* --- Collector shards ---------------------------------------------- *)

let all_on = { Par.cfg_span_on = true; cfg_trace_on = true }

let test_with_shard_restores_on_raise () =
  (* A task that raises inside its shard must leave the submitting
     domain's collectors installed, or every later write of the run
     would land in the dead task's shard. *)
  let span0 = Span.current () and trace0 = Trace.current () in
  let metrics0 = Metrics.current () in
  let sh = Par.acquire_shard all_on in
  (match
     Par.with_shard sh (fun () ->
         Alcotest.(check bool) "shard installed" true
           (Span.current () == sh.Par.sh_span
           && Trace.current () == sh.Par.sh_trace
           &&
           match Metrics.current () with
           | Metrics.Log l -> l == sh.Par.sh_log
           | Metrics.Registry _ -> false);
         failwith "task")
   with
  | () -> Alcotest.fail "expected the task to raise"
  | exception Failure _ -> ());
  Alcotest.(check bool) "span collector restored" true (Span.current () == span0);
  Alcotest.(check bool) "trace restored" true (Trace.current () == trace0);
  Alcotest.(check bool) "metrics registry restored" true
    (Metrics.current () == metrics0);
  Par.release_shard sh

let test_merge_shard_offset_attach () =
  (* A shard records on its task's relative timeline; the merge shifts
     every span and trace event by [offset] and hangs the shard's root
     spans under [attach], keeping the shard's inner parent links. *)
  let dst = Par.make_shard all_on in
  let sh = Par.acquire_shard all_on in
  Par.with_shard sh (fun () ->
      let sp = Span.current () in
      let root =
        Span.begin_span sp ~parent:Span.none ~at:(Units.us 10) ~category:"function"
          ~label:"f" ()
      in
      let leaf =
        Span.begin_span sp ~parent:root ~at:(Units.us 20) ~category:"compute"
          ~label:"c" ()
      in
      Span.end_span sp leaf ~at:(Units.us 30);
      Span.end_span sp root ~at:(Units.us 40);
      Trace.record (Trace.current ()) ~at:(Units.us 25) ~category:"visor" ~label:"ev"
        "d");
  let offset = Units.ms 5 in
  Par.with_shard dst (fun () ->
      let req =
        Span.begin_span (Span.current ()) ~parent:Span.none ~at:(Units.ms 4)
          ~category:"request" ~label:"r" ()
      in
      Par.merge_shard ~attach:req ~offset sh;
      Par.release_shard sh;
      let at us = Units.to_ns (Units.add offset (Units.us us)) in
      let find label =
        List.find
          (fun (s : Span.span) -> s.Span.sp_label = label)
          (Span.spans dst.Par.sh_span)
      in
      let f = find "f" and c = find "c" in
      Alcotest.(check int) "shard root attached" req f.Span.sp_parent;
      Alcotest.(check int) "inner link kept" f.Span.sp_id c.Span.sp_parent;
      Alcotest.(check (list int64)) "span times shifted"
        [ at 10; at 40; at 20; at 30 ]
        (List.map Units.to_ns
           [ f.Span.sp_begin; f.Span.sp_end; c.Span.sp_begin; c.Span.sp_end ]);
      Alcotest.(check (list int64)) "trace event shifted" [ at 25 ]
        (List.map
           (fun (e : Trace.event) -> Units.to_ns e.Trace.at)
           (Trace.events dst.Par.sh_trace)))

(* --- Sched scratch pools and in-place reset ------------------------ *)

let test_scratch_pools_domain_local () =
  (* Each task schedules on its domain's scratch arena while other
     domains do the same; a shared arena would interleave horizons.
     Every task must see exactly the placements of a fresh pool, and a
     second [scratch] call hands back the same arena rewound. *)
  let mine = Hostos.Sched.scratch ~cores:3 in
  ignore (Hostos.Sched.schedule_on mine (List.map Units.ms [ 5; 5; 5; 5 ]));
  let theirs =
    Domain.join
      (Domain.spawn (fun () ->
           let p = Hostos.Sched.scratch ~cores:3 in
           ignore (Hostos.Sched.schedule_on p [ Units.ms 40 ]);
           p))
  in
  Alcotest.(check bool) "another domain gets its own arena" true (mine != theirs);
  Alcotest.(check bool) "another domain's scratch leaves ours alone" true
    (Units.equal (Hostos.Sched.busy_until mine) (Units.ms 10));
  let durations i = List.map Units.ms [ 3 + (i mod 5); 7; 1 + (i mod 3); 4; 6; 2 ] in
  let task i () =
    let p = Hostos.Sched.scratch ~cores:3 in
    let placed = Hostos.Sched.schedule_on p (durations i) in
    let again = Hostos.Sched.scratch ~cores:3 in
    (placed, p == again, Hostos.Sched.busy_until again)
  in
  let results = with_domains 8 (fun () -> Par.run (Array.init 32 task)) in
  Array.iteri
    (fun i (placed, same_arena, busy) ->
      Alcotest.(check bool) (Printf.sprintf "task %d fresh placements" i) true
        (placed = Hostos.Sched.schedule ~cores:3 (durations i));
      Alcotest.(check bool) (Printf.sprintf "task %d arena reused" i) true same_arena;
      Alcotest.(check bool) (Printf.sprintf "task %d arena rewound" i) true
        (Units.equal busy Units.zero))
    results

let test_reset_pool_matches_fresh () =
  (* After uneven work scrambles the core heap, [reset_pool p t0] must
     place tasks exactly like a pool created free at [t0], including
     the lowest-index tie-break among equally free cores. *)
  let pool = Hostos.Sched.pool ~cores:3 in
  ignore (Hostos.Sched.schedule_on pool (List.map Units.ms [ 9; 1; 5; 2; 8 ]));
  let t0 = Units.ms 20 in
  Hostos.Sched.reset_pool pool t0;
  Alcotest.(check bool) "busy horizon rewound to t0" true
    (Units.equal (Hostos.Sched.busy_until pool) t0);
  let durations = List.map Units.ms [ 4; 4; 4; 2; 6 ] in
  let dispatch_latency = Units.us 50 in
  let replay = Hostos.Sched.schedule_on pool ~ready:t0 ~dispatch_latency durations in
  let fresh = Hostos.Sched.schedule ~cores:3 ~ready:t0 ~dispatch_latency durations in
  Alcotest.(check bool) "placements match a fresh pool" true (replay = fresh);
  Alcotest.(check (list int)) "equally free cores taken lowest first" [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (List.map (fun p -> p.Hostos.Sched.core) replay))

(* --- Compile cache under concurrent clients ----------------------- *)

let test_compile_cache_stress () =
  (* 16 tasks over 8 domains race to load the same module through one
     shared cache: exactly one compile happens, everyone else hits, and
     per-load virtual time is charged identically regardless. *)
  let big =
    let chunk i =
      [ Wasm.Builder.const i; Wasm.Builder.const (i + 1); Wasm.Builder.add;
        Wasm.Instr.Drop ]
    in
    let body = List.concat (List.init 400 chunk) @ [ Wasm.Builder.const 0 ] in
    Wasm.Wmodule.create ~name:"stress" ~exports:[ ("f", 0) ]
      [ Wasm.Builder.func ~name:"f" body ]
  in
  let profile = Wasm.Runtime.wasmtime in
  let cache = Wasm.Compile_cache.create () in
  let load () =
    let clock = Clock.create () in
    ignore (Wasm.Runtime.load ~cache profile ~clock big);
    Clock.now clock
  in
  let times = with_domains 8 (fun () -> Par.run (Array.make 16 load)) in
  Alcotest.(check int) "one compile" 1 (Wasm.Compile_cache.miss_count cache);
  Alcotest.(check int) "the rest hit" 15 (Wasm.Compile_cache.hit_count cache);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "virtual load time identical" true
        (Units.equal t times.(0)))
    times

(* --- Serving determinism across domain counts --------------------- *)

let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
  { Workflow.node_id = id; language; instances; required_modules = modules }

let endpoints_spec =
  let chain_wf =
    Workflow.create_exn ~name:"chain"
      ~nodes:[ node ~modules:[ "fdtab" ] "a"; node "b" ]
      ~edges:[ ("a", "b") ]
  in
  let fan_wf =
    Workflow.create_exn ~name:"fan" ~nodes:[ node ~instances:6 "f" ] ~edges:[]
  in
  let py_wf =
    Workflow.create_exn ~name:"py" ~nodes:[ node ~language:Workflow.Python "p" ] ~edges:[]
  in
  let io_kernel (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.write_whole_file ctx "/t" (Bytes.make 8192 'x');
    Asstd.compute ctx (Units.ms 3);
    ignore (Asstd.read_whole_file ctx "/t")
  in
  let compute_kernel ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms ms)
  in
  [
    ("chain", chain_wf,
     [ ("a", Visor.bind io_kernel); ("b", Visor.bind (compute_kernel 4)) ]);
    ("fan", fan_wf, [ ("f", Visor.bind (compute_kernel 5)) ]);
    ("py", py_wf, [ ("p", Visor.bind (compute_kernel 4)) ]);
  ]

let requests_for ~seed ~count =
  let rng = Rng.create seed in
  let eps = Array.of_list (List.map (fun (e, _, _) -> e) endpoints_spec) in
  let t = ref 0.0 in
  List.init count (fun _ ->
      t := !t +. Rng.exponential rng ~mean:(1.0 /. 700.0);
      { Visor.Server.endpoint = Rng.pick rng eps; arrival = Units.ns_f (!t *. 1e9) })

let serve_once ?config ~requests () =
  let server = Visor.Server.create ?config () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    endpoints_spec;
  let r = Visor.Server.serve server requests in
  Visor.Server.shutdown server;
  r

(* Every response field is virtual time or a deterministic counter. *)
let response_line (p : Visor.Server.response) =
  Printf.sprintf "%s,%Ld,%Ld,%b,%b,%d,%d" p.Visor.Server.r_endpoint
    (Units.to_ns p.Visor.Server.r_arrival)
    (Units.to_ns p.Visor.Server.r_finish)
    p.Visor.Server.r_warm p.Visor.Server.r_ok p.Visor.Server.r_attempts
    p.Visor.Server.r_retries

let fingerprint ((responses : Visor.Server.response list), _) =
  String.concat ";" (List.map response_line responses)

let summary (_, (s : Visor.Server.summary)) =
  Printf.sprintf "%d/%d w%d c%d h%d s%d e%d rss%d infl%d" s.Visor.Server.sm_completed
    s.Visor.Server.sm_failed s.Visor.Server.sm_warm_starts s.Visor.Server.sm_cold_starts
    s.Visor.Server.sm_adm_hits s.Visor.Server.sm_adm_scans s.Visor.Server.sm_evictions
    s.Visor.Server.sm_machine_peak_rss s.Visor.Server.sm_max_inflight

let test_serve_identical_across_domains () =
  (* The full observable surface — responses, counters, span tree,
     trace and metrics exports — at 1, 2 and 8 domains. *)
  let requests = requests_for ~seed:7 ~count:60 in
  let observe domains =
    with_domains domains (fun () ->
        reset_observability ();
        Span.set_enabled Span.global true;
        let r = serve_once ~requests () in
        let tr = Obs.trace_json_string () in
        let me = Obs.metrics_json_string () in
        Span.set_enabled Span.global false;
        reset_observability ();
        (fingerprint r ^ "|" ^ summary r, tr, me))
  in
  let base_fp, base_tr, base_me = observe 1 in
  List.iter
    (fun d ->
      let fp, tr, me = observe d in
      Alcotest.(check string) (Printf.sprintf "responses at %d domains" d) base_fp fp;
      Alcotest.(check string) (Printf.sprintf "trace export at %d domains" d) base_tr tr;
      Alcotest.(check string) (Printf.sprintf "metrics export at %d domains" d) base_me me)
    [ 2; 8 ]

let test_chaos_identical_across_domains () =
  (* Same fault seed, retries enabled: crash/hang scheduling, retry
     counts and fault accounting must not depend on the domain count. *)
  let requests = requests_for ~seed:11 ~count:40 in
  let run domains =
    with_domains domains (fun () ->
        let plan = Fault.create ~seed:5 () in
        Fault.inject plan ~site:Fault.site_fn_crash (Fault.Every 7);
        Fault.inject plan ~site:Fault.site_vfs_write (Fault.Every 9);
        let config =
          {
            Visor.default_config with
            Visor.fault = Some plan;
            retry = Visor.Retry_workflow 3;
          }
        in
        let r = serve_once ~config ~requests () in
        Printf.sprintf "%s|%s|crash%d vfs%d" (fingerprint r) (summary r)
          (Fault.fired plan ~site:Fault.site_fn_crash)
          (Fault.fired plan ~site:Fault.site_vfs_write))
  in
  let base = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check string) (Printf.sprintf "chaos at %d domains" d) base (run d))
    [ 2; 8 ]

let test_seeded_stress_across_domains () =
  (* 20 seeded traces, domain count far above the machine's cores: each
     seed's parallel serve must replay its sequential serve exactly,
     and no WFDs may leak. *)
  let live0 = Wfd.live_count () in
  for seed = 0 to 19 do
    let requests = requests_for ~seed ~count:25 in
    let sequential = serve_once ~requests () in
    let parallel = with_domains 8 (fun () -> serve_once ~requests ()) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      (fingerprint sequential ^ "|" ^ summary sequential)
      (fingerprint parallel ^ "|" ^ summary parallel)
  done;
  Alcotest.(check int) "no WFD leak" live0 (Wfd.live_count ())

let observe_serve ~requests ~domains ?config () =
  with_domains domains (fun () ->
      reset_observability ();
      Span.set_enabled Span.global true;
      let r = serve_once ?config ~requests () in
      let tr = Obs.trace_json_string () in
      let me = Obs.metrics_json_string () in
      Span.set_enabled Span.global false;
      reset_observability ();
      fingerprint r ^ "|" ^ summary r ^ "||" ^ tr ^ "||" ^ me)

let test_recycled_shard_merges_like_fresh () =
  (* A shard is used, merged, released and re-acquired; the same writes
     through it and through a fresh shard must merge to the same bytes.
     The second round writes other series than the first, so any state
     the scrub missed shows up in the merged output. *)
  let write tag =
    let sp = Span.current () in
    let id =
      Span.begin_span sp ~parent:Span.none ~at:(Units.us 1) ~category:"function"
        ~label:tag ()
    in
    Span.set_attr sp id "tag" tag;
    Span.end_span sp id ~at:(Units.us 9);
    Trace.record (Trace.current ()) ~at:(Units.us 3) ~category:"visor" ~label:tag tag;
    Metrics.observe (Metrics.histogram ("test.par.h." ^ tag)) 42.0;
    Metrics.max_gauge (Metrics.gauge ("test.par.g." ^ tag)) 7.0
  in
  let merged sh =
    let dst = Par.make_shard all_on in
    Par.with_shard dst (fun () ->
        Par.merge_shard ~offset:(Units.ms 1) sh;
        String.concat "||"
          [
            Obs.trace_json_string ~collector:(Span.current ()) ();
            Trace.dump (Trace.current ());
            Obs.metrics_json_string ();
          ])
  in
  let used = Par.acquire_shard all_on in
  Par.with_shard used (fun () -> write "first");
  ignore (merged used);
  Par.release_shard used;
  let recycled = Par.acquire_shard all_on in
  Alcotest.(check bool) "the pool hands the shard back" true (recycled == used);
  let fresh = Par.make_shard all_on in
  Par.with_shard recycled (fun () -> write "second");
  Par.with_shard fresh (fun () -> write "second");
  Alcotest.(check string) "recycled shard merges like a fresh one" (merged fresh)
    (merged recycled);
  Par.release_shard recycled

let test_pools_scrubbed_after_chaos () =
  (* Reset-discipline under crashes: a chaos leg (crashing functions,
     failing writes, workflow retries) leaves every per-request pool —
     collector shards, process tables, recycled shells — full of
     crashed-request state.  A clean run after it must be
     byte-identical to the clean run before it, spans and trace and
     metrics exports included: nothing stale may leak out of a pool. *)
  let requests = requests_for ~seed:17 ~count:50 in
  let before = observe_serve ~requests ~domains:4 () in
  with_domains 4 (fun () ->
      let chaos = requests_for ~seed:23 ~count:60 in
      let plan = Fault.create ~seed:3 () in
      Fault.inject plan ~site:Fault.site_fn_crash (Fault.Every 3);
      Fault.inject plan ~site:Fault.site_vfs_write (Fault.Every 5);
      let config =
        {
          Visor.default_config with
          Visor.fault = Some plan;
          retry = Visor.Retry_workflow 3;
        }
      in
      ignore (serve_once ~config ~requests:chaos ()));
  let after = observe_serve ~requests ~domains:4 () in
  Alcotest.(check string) "recycled pools leak no chaos state" before after

(* --- Hotspot allocation accounting --------------------------------- *)

let test_hotspot_allocation_accounting () =
  (* One outer section around a whole (single-domain) serve must charge
     the same words the GC reports for the run, to within the harness's
     own allocation between the two measurement points — and profiling
     must not change a virtual byte. *)
  let requests = requests_for ~seed:29 ~count:40 in
  let baseline = fingerprint (serve_once ~requests ()) in
  Hotspot.reset ();
  Hotspot.set_enabled true;
  (* The GC's count read the way the profiler reads it: minor words
     from [Gc.minor_words], since [Gc.allocated_bytes] takes them from
     [Gc.counters], which on OCaml 5.1 leaves out what the current
     minor heap holds (up to its whole size). *)
  let allocated_words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let a0 = allocated_words () in
  let r =
    Fun.protect
      ~finally:(fun () -> Hotspot.set_enabled false)
      (fun () -> Hotspot.with_section "test.total" (fun () -> serve_once ~requests ()))
  in
  let gc_words = allocated_words () -. a0 in
  Alcotest.(check string) "profiling leaves responses untouched" baseline
    (fingerprint r);
  let entry =
    List.find
      (fun (e : Hotspot.entry) -> String.equal e.Hotspot.hs_name "test.total")
      (Hotspot.snapshot ())
  in
  let section_words = Hotspot.entry_words entry in
  let diff = Float.abs (gc_words -. section_words) in
  let tolerance = Float.max 10_000.0 (0.01 *. gc_words) in
  if diff > tolerance then
    Alcotest.failf
      "hotspot words (%.0f) vs GC allocated words (%.0f): diff %.0f exceeds %.0f"
      section_words gc_words diff tolerance;
  Alcotest.(check bool) "a serve allocates something" true (gc_words > 0.0);
  Alcotest.(check bool) "minor + major split covers the total" true
    (Float.abs
       (entry.Hotspot.hs_minor_words +. entry.Hotspot.hs_major_words
      -. section_words)
    < 1.0)

let test_hotspot_minor_words_exact () =
  (* A section's minor words are its body's, to within a word, however
     small the body: the profiler's own allocation at each boundary
     stays outside the section.  The body's reading goes to a float
     array, so storing it boxes nothing. *)
  let body = [| 0.0 |] in
  let run n =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      ignore (Sys.opaque_identity (Array.make 3 i))
    done;
    body.(0) <- Gc.minor_words () -. w0
  in
  Hotspot.reset ();
  Hotspot.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Hotspot.set_enabled false)
    (fun () ->
      List.iter
        (fun n ->
          let name = Printf.sprintf "test.hotspot.words.%d" n in
          let s = Hotspot.enter name in
          run n;
          Hotspot.leave s;
          let e =
            List.find
              (fun (e : Hotspot.entry) -> String.equal e.Hotspot.hs_name name)
              (Hotspot.snapshot ())
          in
          if Float.abs (e.Hotspot.hs_minor_words -. body.(0)) > 1.0 then
            Alcotest.failf "%s: section read %.1f minor words, its body allocated %.1f" name
              e.Hotspot.hs_minor_words body.(0))
        [ 0; 1; 3; 10; 100; 10_000 ])

(* --- The merge rule -------------------------------------------------

   A shard holds only order-sensitive instruments: spans, trace events
   and histograms.  Observing a stream through shards merged in order
   must export the same bytes as observing every series' sequence
   directly, however the stream is cut, at k = 1 and on the digest path
   (k = 64).  Counters and gauges are process-wide cells instead, so
   bumps from any domain, inside a shard or not, end at the exact sum
   and the exact maximum. *)

let all_off = { Par.cfg_span_on = false; cfg_trace_on = false }

let merge_series =
  Array.init 8 (fun i ->
      if i mod 2 = 0 then Printf.sprintf "test.par.merge.s%d" i
      else
        Metrics.labels "test.par.merge" [ ("endpoint", string_of_int i); ("q", "a\"b") ])

let observe_all obs =
  List.iter (fun (i, v) -> Metrics.observe (Metrics.histogram merge_series.(i)) v) obs

(* A case is a list of shards, each a list of (series, value)
   observations and whether the shard comes back from the pool after
   an earlier use.  Some shards are empty; values repeat. *)
let merge_case_gen =
  let open QCheck.Gen in
  let* series = int_range 1 8 in
  let value =
    frequency
      [
        (3, map float_of_int (int_range 0 1_000_000_000_000));
        (2, float_range 0.0 1e12);
        (1, oneofl [ 0.0; 1.0; 1023.0; 1024.0; 1e12 ]);
      ]
  in
  let observations =
    list_size
      (frequency [ (1, return 0); (4, int_range 1 120) ])
      (pair (int_bound (series - 1)) value)
  in
  list_size (int_range 1 6) (pair observations bool)

let print_merge_case shards =
  String.concat " | "
    (List.map
       (fun (obs, recycled) ->
         Printf.sprintf "%s%s" (if recycled then "recycled " else "")
           (String.concat ","
              (List.map (fun (i, v) -> Printf.sprintf "%d:%.17g" i v) obs)))
       shards)

let in_fresh_registry f =
  let saved = Metrics.current () in
  Metrics.set_current (Metrics.Registry (Metrics.create_registry ()));
  Fun.protect ~finally:(fun () -> Metrics.set_current saved) f

let export_in_fresh_registry ~every f =
  in_fresh_registry (fun () ->
      if every > 1 then Metrics.set_raw_sample_every ~seed:7 every;
      f ();
      Obs.metrics_json_string ())

let merged_export ~every shards =
  let shards =
    Array.of_list
      (List.map
         (fun (obs, recycled) ->
           if recycled then begin
             (* Leave cleared cells behind in the pooled shard: a stale
                series and the case's own. *)
             let used = Par.acquire_shard all_off in
             Par.with_shard used (fun () ->
                 Metrics.observe (Metrics.histogram "test.par.merge.stale") 5.0;
                 observe_all obs);
             Par.release_shard used
           end;
           (Par.acquire_shard all_off, obs))
         shards)
  in
  let fill (sh, obs) () = Par.with_shard sh (fun () -> observe_all obs) in
  ignore (with_domains 2 (fun () -> Par.run (Array.map fill shards)));
  export_in_fresh_registry ~every (fun () ->
      Array.iter
        (fun (sh, _) ->
          Par.merge_shard sh;
          Par.release_shard sh)
        shards)

let merge_rule_property =
  QCheck.Test.make ~name:"merge rule: sharded histograms == direct" ~count:100
    (QCheck.make ~print:print_merge_case merge_case_gen)
    (fun shards ->
      List.for_all
        (fun every ->
          let direct =
            export_in_fresh_registry ~every (fun () ->
                List.iter (fun (obs, _) -> observe_all obs) shards)
          in
          String.equal direct (merged_export ~every shards))
        [ 1; 64 ])

(* --- Histogram ids and shard logs ------------------------------------ *)

(* At k = 64 every observation also feeds the t-digest.  Amortised over
   10^5 calls an observation allocates about 4 words, the boxed floats
   of the calls into [observe] and the digest (the reservoir keeps 1 in
   64, the digest flushes in place); the closure-sorted flush made it
   about 9. *)
let test_observe_allocation () =
  let values = Array.init 100_000 (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  in_fresh_registry (fun () ->
      Metrics.set_raw_sample_every ~seed:1 64;
      let h = Metrics.histogram "test.par.alloc.observe" in
      Array.iter (Metrics.observe h) values;
      let w0 = Gc.minor_words () in
      for i = 0 to Array.length values - 1 do
        Metrics.observe h values.(i)
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int (Array.length values) in
      if per_call >= 6.0 then
        Alcotest.failf "Metrics.observe at k = 64 allocates %.2f minor words a call (bound 6)"
          per_call)

(* A shard's whole life on the serving path: acquire, 10 observations,
   merge into the registry, scrub back into the pool.  After warm-up it
   allocates only the replayed values' boxes for the reservoir's add,
   20 words; a shard that carried a registry took about 46. *)
let test_shard_cycle_allocation () =
  in_fresh_registry (fun () ->
      let h = Metrics.histogram "test.par.alloc.shard" in
      (* Values boxed once, up front: passing one to [observe] boxes
         nothing, so the count is the shard's own. *)
      let values = List.init 10 (fun i -> float_of_int (i * 1000)) in
      let rec feed = function
        | [] -> ()
        | v :: rest ->
            Metrics.observe h v;
            feed rest
      in
      let cycle () =
        let sh = Par.acquire_shard all_off in
        Par.enter_shard sh;
        feed values;
        Par.leave_shard sh;
        Par.merge_shard sh;
        Par.release_shard sh
      in
      (* 2 000 warm-up cycles grow the reservoir to 32 768 slots, which
         the 1 000 measured ones do not outgrow. *)
      for _ = 1 to 2000 do
        cycle ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        cycle ()
      done;
      let per_cycle = (Gc.minor_words () -. w0) /. 1000.0 in
      Alcotest.(check int) "every observation merged" 30_000 (Metrics.histogram_count h);
      if per_cycle >= 35.0 then
        Alcotest.failf "a 10-observation shard cycle allocates %.1f minor words (bound 35)"
          per_cycle)

(* Names interned from 4 domains at once get one id each, whatever the
   order each domain meets them in; observations logged under those
   ids from every domain merge into one series per name. *)
let test_interning_across_domains () =
  let names = Array.init 64 (fun i -> Printf.sprintf "test.par.intern.%d" i) in
  let task d () =
    let sh = Par.acquire_shard all_off in
    let ids =
      Par.with_shard sh (fun () ->
          Array.init 64 (fun k ->
              let i = ((k * 5) + (d * 17)) mod 64 in
              let h = Metrics.histogram names.(i) in
              for v = 1 to d + 1 do
                Metrics.observe h (float_of_int v)
              done;
              (i, h)))
    in
    Array.sort compare ids;
    (sh, Array.map snd ids)
  in
  let results = with_domains 4 (fun () -> Par.run (Array.init 4 task)) in
  let ids0 = snd results.(0) in
  Array.iteri
    (fun d (_, ids) ->
      Alcotest.(check bool) (Printf.sprintf "domain %d sees the same ids" d) true (ids = ids0))
    results;
  Alcotest.(check int) "one id per name" 64
    (List.length (List.sort_uniq compare (Array.to_list ids0)));
  in_fresh_registry (fun () ->
      Array.iter
        (fun (sh, _) ->
          Par.merge_shard sh;
          Par.release_shard sh)
        results;
      let mine =
        List.filter
          (fun (h : Metrics.histo_snapshot) ->
            String.starts_with ~prefix:"test.par.intern." h.Metrics.hs_name)
          (Metrics.snapshot ()).Metrics.snap_histograms
      in
      Alcotest.(check (list string)) "each series once, sorted by name"
        (List.sort String.compare (Array.to_list names))
        (List.map (fun (h : Metrics.histo_snapshot) -> h.Metrics.hs_name) mine);
      (* Domain d observed each name d + 1 times: 1 + 2 + 3 + 4. *)
      List.iter
        (fun (h : Metrics.histo_snapshot) ->
          Alcotest.(check int) (h.Metrics.hs_name ^ " count") 10 h.Metrics.hs_count)
        mine)

let test_counters_gauges_exact () =
  let never = "test.par.cells.never" in
  ignore (Stats.Counter.make never);
  let value i j = float_of_int (((i * 7919) + (j * 104_729)) mod 100_003) in
  let want_max = ref 0.0 in
  for i = 0 to 63 do
    for j = 0 to 99 do
      want_max := Float.max !want_max (value i j)
    done
  done;
  List.iter
    (fun (domains, in_shard) ->
      let tag =
        Printf.sprintf "%d domains, %s" domains
          (if in_shard then "in a shard" else "no shard")
      in
      let name = Printf.sprintf "test.par.cells.count.%d.%b" domains in_shard in
      let c = Stats.Counter.make name in
      let g = Metrics.gauge (Printf.sprintf "test.par.cells.max.%d.%b" domains in_shard) in
      let bump i () =
        for j = 0 to 99 do
          Stats.Counter.incr c;
          Metrics.max_gauge g (value i j)
        done
      in
      let task i () =
        if in_shard then begin
          let sh = Par.acquire_shard all_off in
          Par.with_shard sh (bump i);
          Some sh
        end
        else begin
          bump i ();
          None
        end
      in
      let before = Stats.counter_value name in
      let shards = with_domains domains (fun () -> Par.run (Array.init 64 task)) in
      Array.iter
        (Option.iter (fun sh ->
             Par.merge_shard sh;
             Par.release_shard sh))
        shards;
      Alcotest.(check int) (tag ^ ": exact sum") 6400 (Stats.counter_value name - before);
      Alcotest.(check (float 0.0))
        (tag ^ ": exact maximum") !want_max (Metrics.gauge_value g))
    [ (1, false); (1, true); (4, false); (4, true) ];
  Alcotest.(check (option int)) "a never-bumped counter exports 0" (Some 0)
    (List.assoc_opt never (Metrics.snapshot ()).Metrics.snap_counters)

(* --- The persistent worker pool ----------------------------------- *)

(* Poll [cond] until it holds or [seconds] pass; whether it held.
   Sleeping between polls leaves the core to domains that have not
   been scheduled yet. *)
let wait_until ?(seconds = 10.0) cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    cond ()
    || Unix.gettimeofday () < deadline
       && begin
         Unix.sleepf 1e-4;
         go ()
       end
  in
  go ()

(* [d] tasks, each of which waits until all [d] are held at once, so
   every domain of a width-[d] pool runs exactly one; each returns its
   index and the domain that ran it. *)
let spread d =
  let held = Atomic.make 0 in
  Array.init d (fun i () ->
      Atomic.incr held;
      ignore (wait_until (fun () -> Atomic.get held >= d));
      (i, (Domain.self () :> int)))

let workers_of results =
  let me = (Domain.self () :> int) in
  Array.to_list results |> List.map snd |> List.filter (fun d -> d <> me)
  |> List.sort_uniq compare

let test_pool_reuses_workers () =
  let first, second =
    with_domains 2 (fun () ->
        let a = workers_of (Par.run (spread 2)) in
        let b = workers_of (Par.run (spread 2)) in
        (a, b))
  in
  Alcotest.(check int) "one worker ran a task" 1 (List.length first);
  Alcotest.(check (list int)) "the next run reuses it" first second;
  let third = with_domains 2 (fun () -> workers_of (Par.run (spread 2))) in
  Alcotest.(check int) "a worker ran a task after the width changed" 1 (List.length third);
  Alcotest.(check bool) "the old worker was joined, a new one started" true
    (third <> first)

let test_pool_recovers_from_errors () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          for round = 1 to 20 do
            let at = Printf.sprintf "width %d, round %d" d round in
            (match
               Par.run (Array.init 8 (fun i () -> if i = 3 then failwith "3" else i))
             with
            | _ -> Alcotest.fail (at ^ ": expected a failure")
            | exception Failure msg -> Alcotest.(check string) (at ^ ": task 3 re-raised") "3" msg);
            let results = Par.run (spread d) in
            Array.iteri
              (fun i (j, _) -> Alcotest.(check int) (at ^ ": result by index") i j)
              results;
            Alcotest.(check int) (at ^ ": every worker still runs tasks") (d - 1)
              (List.length (workers_of results))
          done))
    [ 2; 4 ]

(* Task 0 nests three slow tasks, task 1 three instant ones.  When the
   worker takes task 1, it parks again while the caller's nested run is
   still in flight, so a nested run that reached the pool would hand it
   some of the caller's tasks. *)
let test_pool_nested_run_inline () =
  with_domains 2 (fun () ->
      for round = 1 to 20 do
        let results =
          Par.run
            (Array.init 2 (fun i () ->
                 let outer = (Domain.self () :> int) in
                 let inner =
                   Par.run
                     (Array.init 3 (fun j () ->
                          if i = 0 then Unix.sleepf 0.002;
                          ((10 * i) + j, (Domain.self () :> int))))
                 in
                 (outer, inner)))
        in
        Array.iteri
          (fun i (outer, inner) ->
            Array.iteri
              (fun j (v, dom) ->
                let at = Printf.sprintf "round %d, task %d, inner %d" round i j in
                Alcotest.(check int) (at ^ ": result") ((10 * i) + j) v;
                Alcotest.(check int) (at ^ ": inline") outer dom)
              inner)
          results
      done)

let test_pool_stress () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          for k = 1 to 10_000 do
            (* A little allocating work per task, so that a worker often
               finishes a run's last task and must wake the caller. *)
            let r =
              Par.run
                (Array.init 3 (fun i () ->
                     for _ = 1 to 200 do
                       ignore (Sys.opaque_identity (Array.make 4 i))
                     done;
                     (k * 3) + i))
            in
            if r.(0) <> k * 3 || r.(1) <> (k * 3) + 1 || r.(2) <> (k * 3) + 2 then
              Alcotest.failf "width %d, run %d: results out of order" d k
          done))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "Par.run keeps submission order" `Quick test_run_submission_order;
    Alcotest.test_case "Par.run re-raises lowest-index error" `Quick
      test_run_first_error_wins;
    Alcotest.test_case "with_shard restores collectors on raise" `Quick
      test_with_shard_restores_on_raise;
    Alcotest.test_case "merge_shard shifts by offset, attaches roots" `Quick
      test_merge_shard_offset_attach;
    Alcotest.test_case "Sched scratch pools are domain-local" `Quick
      test_scratch_pools_domain_local;
    Alcotest.test_case "Sched reset_pool matches a fresh pool" `Quick
      test_reset_pool_matches_fresh;
    Alcotest.test_case "compile cache: 1 compile, 15 hits" `Quick
      test_compile_cache_stress;
    Alcotest.test_case "serve identical at 1/2/8 domains" `Quick
      test_serve_identical_across_domains;
    Alcotest.test_case "chaos identical across domains" `Quick
      test_chaos_identical_across_domains;
    Alcotest.test_case "recycled shard merges like a fresh one" `Quick
      test_recycled_shard_merges_like_fresh;
    Alcotest.test_case "pools scrubbed after chaos" `Quick
      test_pools_scrubbed_after_chaos;
    Alcotest.test_case "hotspot words match GC accounting" `Quick
      test_hotspot_allocation_accounting;
    Alcotest.test_case "20 seeds, domains > cores" `Slow
      test_seeded_stress_across_domains;
    QCheck_alcotest.to_alcotest merge_rule_property;
    Alcotest.test_case "counters and gauges exact from any domain" `Quick
      test_counters_gauges_exact;
    Alcotest.test_case "observe at k = 64 allocates < 6 words" `Quick test_observe_allocation;
    Alcotest.test_case "shard cycle allocates < 35 words" `Quick test_shard_cycle_allocation;
    Alcotest.test_case "names interned once across domains" `Quick
      test_interning_across_domains;
    Alcotest.test_case "hotspot minor words are exact" `Quick
      test_hotspot_minor_words_exact;
    Alcotest.test_case "pool reuses its workers until the width changes" `Quick
      test_pool_reuses_workers;
    Alcotest.test_case "pool recovers from a raising task" `Quick
      test_pool_recovers_from_errors;
    Alcotest.test_case "nested run runs inline" `Quick test_pool_nested_run_inline;
    Alcotest.test_case "10 000 back-to-back runs" `Quick test_pool_stress;
  ]
