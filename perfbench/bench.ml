(* Runs one workload for a given time and turns what it measured into
   the metrics BENCHMARK.json names.  An untraced run gives the
   end-to-end metrics; a traced run ([trace = true]) gives the
   per-layer ones, from [Sim.Hotspot] sections (the program's and the
   benchmark's own around its calls into the program), [Stats]
   counters, the serve summary and [Gc.quick_stat].  Every
   repetition of a run replays the same seeded inputs, so its virtual
   output must fingerprint identically; a repetition that does not
   counts as a failure. *)

open Sim

type workload = Serve_warm | Serve_cold | Workflows

let workloads = [ ("serve-warm", Serve_warm); ("serve-cold", Serve_cold); ("workflows", Workflows) ]
let workload_of_name n = List.assoc_opt n workloads

type config = {
  workload : workload;
  seed : int;
  seconds : float;  (** Measuring time; at least [min_reps] repetitions run. *)
  trace : bool;
  domains : int;  (** [Sim.Par] pool width of the untraced repetitions; the traced ones run at 1. *)
  scale : float;  (** Input size as a share of the full workload. *)
  min_reps : int;
}

(* Name, unit.  The order is the order of the printed result. *)
let end_to_end =
  [
    ("host_us_per_req", "us");
    ("alloc_words_per_req", "words");
    ("peak_heap_mib", "MiB");
    ("setup_s", "s");
    ("virt_p99_ms", "ms");
    ("virt_e2e_ms", "ms");
  ]

let per_layer =
  [
    ("server.prologue_us", "us");
    ("server.trajectory_us", "us");
    ("server.merge_us", "us");
    ("server.merge_words", "words");
    ("server.trajectory_words", "words");
    ("server.merge_events", "count");
    ("server.residual_us", "us");
    ("server.warm_ratio", "ratio");
    ("par.domains", "count");
    ("par.nproc", "count");
    ("par.serial_frac", "ratio");
    ("par.amdahl_bound_4", "x");
    ("stage.exec_us", "us");
    ("stage.spawn_us", "us");
    ("stage.kernel_us", "us");
    ("visor.boot_us", "us");
    ("visor.run_self_ms", "ms");
    ("wfd.acquire_us", "us");
    ("wfd.recycle_us", "us");
    ("wfd.clone_us", "us");
    ("wfd.destroy_us", "us");
    ("wfd.recycle_ratio", "ratio");
    ("admission.hash_us", "us");
    ("admission.hit_ratio", "ratio");
    ("asbuffer.put_ns_per_kib", "ns/KiB");
    ("asbuffer.get_ns_per_kib", "ns/KiB");
    ("asbuffer.kib_per_req", "KiB");
    ("fs.read_ns_per_kib", "ns/KiB");
    ("fs.write_ns_per_kib", "ns/KiB");
    ("fs.stage_s", "s");
    ("mem.tlb_hit_ratio", "ratio");
    ("mem.tlb_miss_per_req", "count");
    ("mem.tlb_flush_per_req", "count");
    ("kernel.wc_self_ms", "ms");
    ("kernel.ps_self_ms", "ms");
    ("kernel.fc_self_ms", "ms");
    ("kernel.oc_self_ms", "ms");
    ("loadgen.next_us", "us");
    ("gc.minor_per_kreq", "count");
    ("gc.major_per_kreq", "count");
    ("trace.overhead_ratio", "ratio");
    ("residual_frac", "ratio");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** In [end_to_end] or [per_layer] order. *)
  fingerprint : string;  (** Of the virtual output; equal across widths and tracing. *)
  reps : int;
  traced_reps : int;
  samples : (float * float) list;
      (** Host µs per unit of each untraced repetition: at the reference
          speed, and as measured. *)
  setup_samples : float list;  (** Each set-up's time, in s. *)
}

(* Zero every collector the program keeps, so nothing carries over from
   one repetition to the next. *)
let reset_collectors () =
  Trace.clear Trace.global;
  Span.clear Span.global;
  Metrics.reset ();
  Stats.reset_counters ();
  Hotspot.reset ();
  Layers.reset_bytes ()

(* Run [f] with hotspot sections on, and return what it returned plus
   the section snapshot. *)
let traced f =
  reset_collectors ();
  Hotspot.set_enabled true;
  let v = Fun.protect ~finally:(fun () -> Hotspot.set_enabled false) f in
  (v, Hotspot.snapshot ())

(* Repeat [f] until [seconds] have passed and at least [min_reps] ran.
   Each repetition starts from a compacted heap, so none inherits the
   previous one's garbage. *)
let repeat ~seconds ~min_reps f =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min_reps && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      go (f () :: acc) (n + 1)
    end
  in
  go [] 0

let peak_heap_mib () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Reps whose fingerprint differs from the first count as failures. *)
let mismatches = function
  | [] -> 0
  | fp :: rest -> List.length (List.filter (fun f -> not (String.equal f fp)) rest)

(* The traced run's pool width: sections are wall time, and they add up
   to the span they sit in only on one domain. *)
let traced_width = 1

(* What a workload hands the runner.  ['r] is one repetition's record. *)
type 'r ops = {
  untraced : meter:bool -> 'r;
  traced_inputs : unit -> 'r;  (** The repetition with the benchmark's sections wired in. *)
  units : 'r -> int;  (** Requests or invocations in one repetition. *)
  cost : 'r -> Timed.t;
  failed : 'r -> int;
  fingerprint : 'r -> string;
  setup_samples : 'r list -> float list;
      (** Called once the measured repetitions are over, so set-ups it
          adds stay out of the peak heap. *)
  virt : 'r -> (string * float) list;
  layers : 'r -> Hotspot.entry list -> (string * float) list;
  checked_before : 'r list;  (** Warm-up repetitions, checked like the rest. *)
}

let measure cfg ops =
  let repeat f = repeat ~seconds:cfg.seconds ~min_reps:cfg.min_reps f in
  let per_unit_us r s = s *. 1e6 /. float_of_int (ops.units r) in
  let host_us r = per_unit_us r (ops.cost r).Timed.scaled_s in
  let outcome reps =
    let reps = ops.checked_before @ reps in
    let fps = List.map ops.fingerprint reps in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
    let failed = sum ops.failed + mismatches fps in
    (sum ops.units, failed, List.hd fps)
  in
  if not cfg.trace then begin
    Par.set_domains cfg.domains;
    let reps =
      Fun.protect ~finally:(fun () -> Par.set_domains 1) (fun () -> repeat (fun () -> ops.untraced ~meter:true))
    in
    let attempted, failed, fingerprint = outcome reps in
    let med f = Layers.median (List.map f reps) in
    let peak_heap = peak_heap_mib () in
    let setups = ops.setup_samples reps in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [
          ("host_us_per_req", med host_us);
          ( "alloc_words_per_req",
            med (fun r -> (ops.cost r).Timed.alloc_words /. float_of_int (ops.units r)) );
          ("peak_heap_mib", peak_heap);
          ("setup_s", Layers.median setups);
        ]
        @ ops.virt (List.hd reps);
      fingerprint;
      reps = List.length reps;
      traced_reps = 0;
      samples = List.map (fun r -> (host_us r, per_unit_us r (ops.cost r).Timed.span_s)) reps;
      setup_samples = setups;
    }
  end
  else begin
    (* Each traced repetition is paired with an untraced one, for the
       tracing overhead.  Neither is metered: a reference job would land
       inside the sections. *)
    Par.set_domains traced_width;
    let triples =
      repeat (fun () ->
          let u = ops.untraced ~meter:false in
          let t, entries = traced ops.traced_inputs in
          (u, t, ops.layers t entries))
    in
    let us = List.map (fun (u, _, _) -> u) triples and ts = List.map (fun (_, t, _) -> t) triples in
    let attempted, failed, fingerprint = outcome (us @ ts) in
    let span rs = Layers.median (List.map (fun r -> (ops.cost r).Timed.span_s) rs) in
    let layers = List.map (fun (_, _, l) -> l) triples in
    let measured =
      [
        ("par.domains", float_of_int traced_width);
        ("par.nproc", float_of_int (Domain.recommended_domain_count ()));
        ("trace.overhead_ratio", span ts /. span us);
      ]
      @ List.map (fun (n, _) -> (n, Layers.median (List.map (List.assoc n) layers))) (List.hd layers)
    in
    {
      correct = failed = 0;
      attempted;
      failed;
      (* A layer off the workload's path reads 0. *)
      metrics = List.map (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n measured))) per_layer;
      fingerprint;
      reps = List.length us;
      traced_reps = List.length ts;
      samples = List.map (fun r -> (host_us r, host_us r)) us;
      setup_samples = [];
    }
  end

let gc_layers (c : Timed.t) n =
  [
    ("gc.minor_per_kreq", float_of_int c.Timed.minor_gcs *. 1000.0 /. n);
    ("gc.major_per_kreq", float_of_int c.Timed.major_gcs *. 1000.0 /. n);
  ]

let tlb_layers n =
  let counter name = float_of_int (Stats.counter_value name) in
  let hit = counter "mem.tlb.hit" and miss = counter "mem.tlb.miss" in
  [
    ("mem.tlb_hit_ratio", Layers.share hit (hit +. miss));
    ("mem.tlb_miss_per_req", miss /. n);
    ("mem.tlb_flush_per_req", counter "mem.tlb.flush" /. n);
  ]

let asbuffer_layers entries n =
  let ns = Layers.section_ns entries in
  [
    ("asbuffer.put_ns_per_kib", Layers.ns_per_kib (ns "asbuffer.put") !Layers.put_bytes);
    ("asbuffer.get_ns_per_kib", Layers.ns_per_kib (ns "asbuffer.get") !Layers.get_bytes);
    ("asbuffer.kib_per_req", float_of_int !Layers.put_bytes /. 1024.0 /. n);
  ]

(* --- serving -------------------------------------------------------- *)

let serve_layers (rep : Serve_wl.rep) entries =
  let n = float_of_int rep.Serve_wl.requests in
  let ns = Layers.section_ns entries in
  let us name = ns name /. 1e3 /. n in
  let count name = float_of_int (Layers.section_count entries name) in
  let span_ns = rep.Serve_wl.cost.Timed.span_s *. 1e9 in
  let residual = Layers.residual ~span:span_ns [ ns "serve.prologue"; ns "serve.trajectory"; ns "serve.merge" ] in
  let serial_frac = Layers.share (span_ns -. ns "serve.trajectory") span_ns in
  let s = rep.Serve_wl.summary in
  let open Alloystack_core.Visor.Server in
  [
    ("server.prologue_us", us "serve.prologue");
    ("server.trajectory_us", us "serve.trajectory");
    ("server.merge_us", us "serve.merge");
    ("server.merge_words", Layers.section_words entries "serve.merge" /. n);
    ("server.trajectory_words", Layers.section_words entries "serve.trajectory" /. n);
    ("server.merge_events", count "serve.merge" /. n);
    ("server.residual_us", residual /. 1e3 /. n);
    ( "server.warm_ratio",
      Layers.share (float_of_int s.sm_warm_starts) (float_of_int (s.sm_warm_starts + s.sm_cold_starts)) );
    ("par.serial_frac", serial_frac);
    ("par.amdahl_bound_4", Layers.amdahl ~serial_frac 4);
    ("stage.exec_us", us "stage.exec");
    ("stage.spawn_us", us "stage.spawn");
    ("stage.kernel_us", us "stage.kernel");
    ("visor.boot_us", us "boot");
    ("wfd.acquire_us", us "wfd.acquire");
    ("wfd.recycle_us", us "wfd.recycle");
    ("wfd.clone_us", us "wfd.clone");
    ("wfd.destroy_us", us "wfd.destroy");
    ("wfd.recycle_ratio", Layers.share (count "wfd.acquire") (count "wfd.acquire" +. count "wfd.clone"));
    ("admission.hash_us", us "admission.hash");
    ( "admission.hit_ratio",
      Layers.share (float_of_int s.sm_adm_hits) (float_of_int (s.sm_adm_hits + s.sm_adm_scans)) );
    ("loadgen.next_us", rep.Serve_wl.loadgen_s *. 1e6 /. n);
    ("residual_frac", Layers.share residual span_ns);
  ]
  @ asbuffer_layers entries n @ tlb_layers n @ gc_layers rep.Serve_wl.cost n

let serve_ops cfg mode =
  let count = Stdlib.max 64 (int_of_float (float_of_int (Serve_wl.full_count mode) *. cfg.scale)) in
  let rep ~meter =
    reset_collectors ();
    Serve_wl.run_rep ~meter ~mode ~seed:cfg.seed ~count
  in
  {
    untraced = rep;
    traced_inputs = (fun () -> rep ~meter:false);
    units = (fun r -> r.Serve_wl.requests);
    cost = (fun r -> r.Serve_wl.cost);
    failed = (fun r -> r.Serve_wl.failed);
    fingerprint = (fun r -> r.Serve_wl.fingerprint);
    setup_samples = List.map (fun (r : Serve_wl.rep) -> r.Serve_wl.setup_s);
    virt =
      (fun r ->
        let s = r.Serve_wl.summary in
        [
          ("virt_p99_ms", Units.to_ms s.Alloystack_core.Visor.Server.sm_p99_latency);
          ("virt_e2e_ms", Units.to_ms s.sm_mean_latency);
        ]);
    layers = serve_layers;
    (* One repetition first, so one-time costs (pools the server keeps
       between runs, heap growth) stay out of the medians. *)
    checked_before = [ rep ~meter:false ];
  }

(* --- workflows ------------------------------------------------------ *)

(* Set-ups per run; set-up time is their median. *)
let setups = 7

let flows_layers ~stage_s (rep : Flows_wl.rep) entries =
  let n = float_of_int (Array.length rep.Flows_wl.run_ns) in
  let ns = Layers.section_ns entries in
  let us name = ns name /. 1e3 /. n in
  let kernel_ns tag = ns (Flows_wl.kernel_section tag) in
  let kernels_ns = Array.fold_left (fun acc tag -> acc +. kernel_ns tag) 0.0 Flows_wl.tags in
  let run_ns = Array.fold_left ( +. ) 0.0 rep.Flows_wl.run_ns in
  let self_ms tag = (kernel_ns tag -. ns (Flows_wl.io_section tag)) /. 1e6 in
  let span_ns = rep.Flows_wl.cost.Timed.span_s *. 1e9 in
  let residual = Layers.residual ~span:span_ns [ kernels_ns; ns "stage.spawn"; ns "wfd.destroy" ] in
  [
    ("stage.exec_us", us "stage.exec");
    ("stage.spawn_us", us "stage.spawn");
    ("stage.kernel_us", us "stage.kernel");
    ("visor.boot_us", us "boot");
    ("visor.run_self_ms", (run_ns -. kernels_ns) /. 1e6 /. n);
    ("wfd.destroy_us", us "wfd.destroy");
    ("fs.read_ns_per_kib", Layers.ns_per_kib (ns "perfbench.fs.read") !Layers.read_bytes);
    ("fs.write_ns_per_kib", Layers.ns_per_kib (ns "perfbench.fs.write") !Layers.write_bytes);
    ("fs.stage_s", stage_s);
    ("kernel.wc_self_ms", self_ms "wc");
    ("kernel.ps_self_ms", self_ms "ps");
    ("kernel.fc_self_ms", self_ms "fc");
    ("kernel.oc_self_ms", self_ms "oc");
    ("residual_frac", Layers.share residual span_ns);
  ]
  @ asbuffer_layers entries n @ tlb_layers n @ gc_layers rep.Flows_wl.cost n

let flows_ops cfg =
  let setup () = Flows_wl.setup ~meter:true ~seed:cfg.seed ~scale:cfg.scale in
  let first = setup () in
  let specs = first.Flows_wl.specs in
  let batch specs ~meter =
    reset_collectors ();
    Flows_wl.run_batch ~meter specs
  in
  (* The warm-up batch fills the shared compile cache. *)
  let warm = batch specs ~meter:false in
  let tspecs = Flows_wl.traced specs in
  let invocations = Array.length specs in
  {
    untraced = batch specs;
    traced_inputs = (fun () -> batch tspecs ~meter:false);
    units = (fun _ -> invocations);
    cost = (fun r -> r.Flows_wl.cost);
    failed = (fun r -> r.Flows_wl.failed);
    fingerprint = (fun r -> r.Flows_wl.fingerprint);
    (* Set-ups timed after the repetitions, keeping only their times. *)
    setup_samples = (fun _ -> List.init setups (fun _ -> (setup ()).Flows_wl.setup_s));
    virt =
      (fun r ->
        let e2e = Array.to_list r.Flows_wl.e2e_ms in
        [
          ("virt_p99_ms", Layers.percentile e2e 99.0);
          ("virt_e2e_ms", List.fold_left ( +. ) 0.0 e2e /. float_of_int invocations);
        ]);
    layers = flows_layers ~stage_s:first.Flows_wl.stage_s;
    checked_before = [ warm ];
  }

let run cfg =
  match cfg.workload with
  | Serve_warm -> measure cfg (serve_ops cfg Serve_wl.Warm)
  | Serve_cold -> measure cfg (serve_ops cfg Serve_wl.Cold)
  | Workflows -> measure cfg (flows_ops cfg)

(* The result line: one JSON object, every value with all its digits. *)
let to_json ~trace r =
  let units = if trace then per_layer else end_to_end in
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  let metric (n, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) (List.assoc n units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
