open Sim

type kernel = Asstd.ctx -> instance:int -> total:int -> unit

type binding = { kernel : kernel; image : Isa.Image.t option }

let bind ?image kernel = { kernel; image }

type retry_policy = No_retry | Retry_function of int | Retry_workflow of int

type backoff =
  | No_backoff
  | Exponential of { base : Units.time; factor : float; limit : Units.time }

let backoff_delay backoff ~attempt =
  if attempt <= 1 then Units.zero
  else
    match backoff with
    | No_backoff -> Units.zero
    | Exponential { base; factor; limit } ->
        Units.min limit (Units.scale base (factor ** float_of_int (attempt - 2)))

(* Content-hash -> verdict store. *)
type admission_cache = {
  verdicts : (string, (unit, string) result) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_scans : int;
}

let admission_cache () =
  { verdicts = Hashtbl.create 16; cache_hits = 0; cache_scans = 0 }

let admission_hits c = c.cache_hits
let admission_scans c = c.cache_scans

type config = {
  cores : int;
  features : Wfd.features;
  vfs : Fsim.Vfs.t option;
  wasm_runtime : Wasm.Runtime.profile option;
  dispatch_latency : Units.time;
  retry : retry_policy;
  cpu_quota : float option;
  fault : Fault.t option;
  timeout : Units.time option;
  backoff : backoff;
  admission : admission_cache option;
  code_cache : Wasm.Compile_cache.t option;
}

let default_config =
  {
    cores = 64;
    features = Wfd.default_features;
    vfs = None;
    wasm_runtime = None;
    dispatch_latency = Units.us 15;
    retry = No_retry;
    cpu_quota = None;
    fault = None;
    timeout = None;
    backoff = No_backoff;
    admission = None;
    code_cache = None;
  }

type stage_report = {
  stage_index : int;
  instance_durations : Units.time list;
  stage_makespan : Units.time;
  fan_in_waits : Units.time list;
}

type report = {
  e2e : Units.time;
  cold_start : Units.time;
  admission : Units.time;
  stage_reports : stage_report list;
  phase_totals : (string * Units.time) list;
  entry_misses : int;
  entry_hits : int;
  trampoline_crossings : int;
  peak_rss : int;
  stdout : string;
  loaded_modules : string list;
  retries : int;
}

exception Admission_failed of string

exception Function_failed of { fn : string; attempts : int; error : exn }

exception Function_hung of { fn : string }

exception Timed_out of { fn : string; after : Units.time }

(* Recovering a crashed function: discard its heap-unit allocations
   (linked_list_allocator recovery, 7.1), unmap its slot and restart
   the thread in a fresh slot. *)
let function_restart_cost = Units.us 260

(* Blacklist admission: scan (and if needed rewrite) every provided
   image.  This runs before the workflow is triggered (§6), so its cost
   is reported separately from the critical path.  With a cache, an
   image whose content hash was already scanned skips the re-scan and
   replays the recorded verdict. *)
let admit_images ?cache bindings =
  let clock = Clock.create () in
  List.iter
    (fun (_, b) ->
      match b.image with
      | None -> ()
      | Some image ->
          let scan () =
            let kb = (Isa.Image.code_size image + 1023) / 1024 in
            Clock.advance clock (Units.scale Cost.image_scan_per_kb (float_of_int kb));
            match Isa.Rewriter.admit image with
            | Ok _ -> Ok ()
            | Error reason -> Error reason
          in
          let verdict =
            match cache with
            | None -> scan ()
            | Some c -> begin
                let key =
                  Hotspot.with_section "admission.hash" (fun () ->
                      Isa.Image.content_hash image)
                in
                match Hashtbl.find_opt c.verdicts key with
                | Some v ->
                    c.cache_hits <- c.cache_hits + 1;
                    Clock.advance clock Cost.admission_cache_hit;
                    v
                | None ->
                    c.cache_scans <- c.cache_scans + 1;
                    let v = scan () in
                    Hashtbl.replace c.verdicts key v;
                    v
              end
          in
          match verdict with
          | Ok () -> ()
          | Error reason -> raise (Admission_failed reason))
    bindings;
  Clock.now clock

let lookup_binding bindings id =
  match List.assoc_opt id bindings with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Visor.run: no binding for function %s" id)

let make_fn_ctx config wfd thread language =
  let ctx = Asstd.make_ctx ?code_cache:config.code_cache wfd thread language in
  match language with
  | Workflow.Rust -> ctx
  | Workflow.C | Workflow.Python ->
      let runtime =
        match config.wasm_runtime with Some r -> r | None -> Wasm.Runtime.wasmtime
      in
      Asstd.with_runtime ctx runtime

(* Module instantiation for a WASM-hosted function after the engine is
   up (linear memory + linker binding). *)
let wasm_instantiate_cost = Units.us 300

(* A parallel Python instance needs its own interpreter state; with the
   runtime files already resident in the WFD this re-init is far
   cheaper than the first boot (the Fig. 13 "file reading during
   initialization" bottleneck shows up as instances grow). *)
let cpython_reinit = Units.ms 300

(* Interpreter reuse by a later sequential function of the same WFD. *)
let cpython_reuse = Units.ms 25

type runtime_state = {
  mutable engine_started : bool;
  mutable python_booted : bool;
}

(* Runtime init charged before a WASM-hosted function's first
   instruction.  The engine (and for Python the CPython runtime) lives
   in the WFD and is shared: only the first function pays the full
   boot.  A warm-pool clone inherits the template's already-booted
   flags, so it never pays the boot at all. *)
let runtime_init_cost config state language ~instance =
  let runtime =
    match config.wasm_runtime with Some r -> r | None -> Wasm.Runtime.wasmtime
  in
  match language with
  | Workflow.Rust -> Units.zero
  | Workflow.C | Workflow.Python ->
      let engine =
        if state.engine_started then Units.zero
        else begin
          state.engine_started <- true;
          runtime.Wasm.Runtime.startup
        end
      in
      let python =
        match language with
        | Workflow.Python ->
            if not state.python_booted then begin
              state.python_booted <- true;
              Wasm.Runtime.cpython_init
            end
            else if instance > 0 then cpython_reinit
            else cpython_reuse
        | Workflow.Rust | Workflow.C -> Units.zero
      in
      Units.add engine (Units.add wasm_instantiate_cost python)

(* --- Observability instruments ------------------------------------ *)

let fn_histo = Metrics.histogram "visor.function_ns"
let stage_histo = Metrics.histogram "visor.stage_ns"
let e2e_histo = Metrics.histogram "visor.e2e_ns"
let retry_counter = Stats.Counter.make "visor.retries"

(* --- Stage execution engine -------------------------------------- *)

(* State of one workflow execution in one WFD.  [run_once] drives it
   stage by stage to completion on a private machine; [Server] drives
   many of them interleaved over a shared core pool, advancing each at
   its stage boundaries in virtual time. *)
type exec_ctx = {
  ecfg : config;
  ebindings : (string * binding) list;
  ewfd : Wfd.t;
  rt : runtime_state;
  eretries : int ref;
  cold_start_mark : Units.time option ref;
  ephase_totals : (string, Units.time) Hashtbl.t;
  epeak_rss : int ref;
  estage_reports : stage_report list ref;
  et0 : Units.time;
}

let make_exec_ctx ~config ~bindings ~wfd ~rt ~retries ~t0 =
  {
    ecfg = config;
    ebindings = bindings;
    ewfd = wfd;
    rt;
    eretries = retries;
    cold_start_mark = ref None;
    ephase_totals = Hashtbl.create 8;
    epeak_rss = ref 0;
    estage_reports = ref [];
    et0 = t0;
  }

(* Run every instance of every node of one stage: spawn the function
   threads, execute the kernels (with per-function retry/timeout under
   the configured policy) and return each task's on-CPU duration.  The
   caller places the durations on cores — a private core set for
   [run_once], the machine-shared pool for [Server]. *)
let exec_stage ectx ~ready nodes =
  let config = ectx.ecfg in
  let wfd = ectx.ewfd in
  let tasks =
    List.concat_map
      (fun node ->
        let b = lookup_binding ectx.ebindings node.Workflow.node_id in
        List.init node.Workflow.instances (fun i -> (node, b, i)))
      nodes
  in
  let dispatch = ref ready in
  List.map
    (fun ((node : Workflow.node), b, i) ->
      dispatch := Units.add !dispatch config.dispatch_latency;
      let start = !dispatch in
      let spawn_clock = Clock.create ~at:start () in
      (match config.cpu_quota with
      | Some _ -> Clock.advance spawn_clock Hostos.Cgroup.setup_cost
      | None -> ());
      let thread =
        Hotspot.with_section "stage.spawn" (fun () ->
            Wfd.spawn_function_thread wfd ~clock:spawn_clock)
      in
      Clock.sync thread.Wfd.clock spawn_clock;
      Clock.advance thread.Wfd.clock
        (runtime_init_cost config ectx.rt node.Workflow.language ~instance:i);
      (match !(ectx.cold_start_mark) with
      | None -> ectx.cold_start_mark := Some (Clock.now thread.Wfd.clock)
      | Some _ -> ());
      (* Run the kernel; a crash is contained by MPK fault isolation,
         so under Retry_function the orchestrator recovers the
         function's heap and restarts just this function (3.1). *)
      let max_attempts =
        match config.retry with
        | Retry_function n -> Stdlib.max 1 n
        | No_retry | Retry_workflow _ -> 1
      in
      let fn = node.Workflow.node_id in
      (* The label sprintf only when the span collector is on: with
         1-in-k request sampling, most requests run with spans off and
         the eager label was pure allocation. *)
      let fn_span =
        let sp = Span.current () in
        if Span.enabled sp then
          Span.begin_span sp ~parent:wfd.Wfd.span ~at:start ~category:"function"
            ~label:(Printf.sprintf "%s#%d" fn i)
            ()
        else Span.none
      in
      let saved_span = wfd.Wfd.span in
      if fn_span <> Span.none then wfd.Wfd.span <- fn_span;
      let record_recovery ~at detail =
        match config.fault with
        | Some plan -> Fault.record_recovery plan ~at ~site:"visor.retry" detail
        | None ->
            Trace.recordf (Trace.current ()) ~at ~category:"fault" ~label:"visor.retry"
              "recovered: %s" detail
      in
      let rec attempt thread n =
        let ctx = make_fn_ctx config wfd thread node.Workflow.language in
        let attempt_start = Clock.now thread.Wfd.clock in
        let execute () =
          (match config.fault with
          | Some plan ->
              if Fault.check ~at:attempt_start plan ~site:Fault.site_fn_crash then
                raise (Fault.Injected { site = Fault.site_fn_crash });
              if Fault.check ~at:attempt_start plan ~site:Fault.site_fn_hang then begin
                match config.timeout with
                | None ->
                    (* No watchdog timeout configured: a wedged
                       function thread is undetectable. *)
                    raise (Function_hung { fn })
                | Some limit ->
                    (* The thread wedges; the watchdog kills it when
                       the per-function timeout expires. *)
                    Clock.advance thread.Wfd.clock limit;
                    raise (Timed_out { fn; after = limit })
              end
          | None -> ());
          Hotspot.with_section "stage.kernel" (fun () ->
              b.kernel ctx ~instance:i ~total:node.Workflow.instances);
          match config.timeout with
          | Some limit
            when Units.( > ) (Clock.elapsed_since thread.Wfd.clock attempt_start) limit
            ->
              (* The kernel ran past its budget: the watchdog killed
                 it at the deadline, the visor observes the kill at
                 the next scheduling tick. *)
              raise (Timed_out { fn; after = limit })
          | _ -> ()
        in
        match execute () with
        | () -> (thread, ctx)
        | exception (Function_hung _ as e) -> raise e
        | exception error ->
            if n >= max_attempts then
              raise (Function_failed { fn; attempts = n; error })
            else begin
              incr ectx.eretries;
              Stats.Counter.incr retry_counter;
              (* Recover the crashed function's heap unit and
                 restart it in the same slot.  The recovery (respawn +
                 restart cost + backoff wait) is a "retry" span under
                 the function. *)
              let rsp =
                let sp = Span.current () in
                if Span.enabled sp then
                  Span.begin_span sp ~parent:wfd.Wfd.span
                    ~at:(Clock.now thread.Wfd.clock) ~category:"retry"
                    ~label:(Printf.sprintf "restart %s" fn)
                    ()
                else Span.none
              in
              let fresh =
                Wfd.respawn_function_thread wfd ~slot:thread.Wfd.fn_slot
                  ~clock:thread.Wfd.clock
              in
              Clock.advance fresh.Wfd.clock function_restart_cost;
              let wait = backoff_delay config.backoff ~attempt:(n + 1) in
              Clock.advance fresh.Wfd.clock wait;
              Span.end_span (Span.current ()) rsp ~at:(Clock.now fresh.Wfd.clock);
              record_recovery ~at:(Clock.now fresh.Wfd.clock)
                (Printf.sprintf "restart %s attempt %d (backoff %s)" fn (n + 1)
                   (Units.to_string wait));
              attempt fresh (n + 1)
            end
      in
      let final_thread, ctx =
        match attempt thread 1 with
        | result -> result
        | exception e ->
            (* A terminal failure escapes to the workflow-retry layer;
               the function span stays zero-length and the lost attempt
               surfaces as unattributed ("other") time of the stage. *)
            wfd.Wfd.span <- saved_span;
            raise e
      in
      Hashtbl.iter
        (fun name t ->
          let prev =
            match Hashtbl.find_opt ectx.ephase_totals name with
            | Some v -> v
            | None -> Units.zero
          in
          Hashtbl.replace ectx.ephase_totals name (Units.add prev t))
        ctx.Asstd.phases;
      wfd.Wfd.span <- saved_span;
      Span.end_span (Span.current ()) fn_span ~at:(Clock.now final_thread.Wfd.clock);
      let on_cpu = Clock.elapsed_since final_thread.Wfd.clock start in
      Metrics.observe_time fn_histo on_cpu;
      match config.cpu_quota with
      | Some q -> Hostos.Cgroup.stretch (Hostos.Cgroup.create ~quota:q) on_cpu
      | None -> on_cpu)
    tasks

(* Record a scheduled stage's report and return its makespan — the next
   stage's ready time. *)
let record_stage ectx ~stage_index ~ready ~durations ~placements =
  let makespan = Hostos.Sched.makespan placements in
  Metrics.observe_time stage_histo (Units.sub makespan ready);
  ectx.epeak_rss :=
    Stdlib.max !(ectx.epeak_rss) (Hostos.Process.total_rss ectx.ewfd.Wfd.proc_table);
  ectx.estage_reports :=
    {
      stage_index;
      instance_durations = durations;
      stage_makespan = Units.sub makespan ready;
      fan_in_waits = Hostos.Sched.fan_in_wait placements;
    }
    :: !(ectx.estage_reports);
  Trace.recordf (Trace.current ()) ~at:makespan ~category:"visor" ~label:"stage-done"
    "wfd%d stage %d (%d instances)" ectx.ewfd.Wfd.id stage_index (List.length durations);
  makespan

let build_report ectx ~finish ~cold_fallback ~admission =
  let wfd = ectx.ewfd in
  Metrics.observe_time e2e_histo (Units.sub finish ectx.et0);
  let stdout = Libos_stdio.output wfd in
  let loaded_modules =
    Hashtbl.fold (fun k () acc -> k :: acc) wfd.Wfd.loaded_modules []
    |> List.sort compare
  in
  {
    e2e = Units.sub finish ectx.et0;
    cold_start =
      (match !(ectx.cold_start_mark) with
      | Some m -> Units.sub m ectx.et0
      | None -> Units.sub cold_fallback ectx.et0);
    admission;
    stage_reports = List.rev !(ectx.estage_reports);
    phase_totals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) ectx.ephase_totals []
      |> List.sort compare;
    entry_misses = wfd.Wfd.entry_misses;
    entry_hits = wfd.Wfd.entry_hits;
    trampoline_crossings = wfd.Wfd.trampoline_crossings;
    peak_rss = !(ectx.epeak_rss);
    stdout;
    loaded_modules;
    retries = !(ectx.eretries);
  }

let run_once ?retries ~(config : config) ~workflow ~bindings () =
  (* Check bindings exist up front. *)
  List.iter
    (fun n -> ignore (lookup_binding bindings n.Workflow.node_id))
    workflow.Workflow.nodes;
  let admission = admit_images ?cache:config.admission bindings in
  let proc_table = Hostos.Process.create_table () in
  let clock = Clock.create () in
  let t0 = Clock.now clock in
  let wf_span =
    Span.begin_span (Span.current ()) ~parent:Span.none ~at:t0 ~category:"workflow"
      ~label:workflow.Workflow.wf_name ()
  in
  (* (1) The watchdog receives the invocation event. *)
  Clock.advance clock Cost.visor_dispatch;
  (* as-visor instantiates the WFD for the workflow. *)
  let wfd =
    Wfd.create ~features:config.features ?vfs:config.vfs ?fault:config.fault
      ~proc_table ~clock ~workflow_name:workflow.Workflow.wf_name ()
  in
  (* The WFD (and its proc-table entry) must be reclaimed on every exit
     path: a terminal function failure in a long-lived server or a
     Retry_workflow loop must not accumulate live WFDs. *)
  Fun.protect
    ~finally:(fun () -> Wfd.destroy wfd)
    (fun () ->
      (* Dispatch + WFD instantiation + entry table (+ the load-all
         configuration's up-front module loads) are the boot phase. *)
      let boot_span =
        Span.begin_span (Span.current ()) ~parent:wf_span ~at:t0 ~category:"boot"
          ~label:"wfd-boot" ()
      in
      wfd.Wfd.span <- boot_span;
      Clock.advance clock Cost.entry_table_init;
      Trace.recordf (Trace.current ()) ~at:(Clock.now clock) ~category:"visor"
        ~label:"wfd-created" "wfd%d for %s" wfd.Wfd.id workflow.Workflow.wf_name;
      if not config.features.Wfd.on_demand then Libos.load_all wfd ~clock;
      Span.end_span (Span.current ()) boot_span ~at:(Clock.now clock);
      wfd.Wfd.span <- wf_span;
      let rt = { engine_started = false; python_booted = false } in
      let retries = match retries with Some r -> r | None -> ref 0 in
      let ectx = make_exec_ctx ~config ~bindings ~wfd ~rt ~retries ~t0 in
      let ready = ref (Clock.now clock) in
      List.iteri
        (fun stage_index nodes ->
          let stage_span =
            Span.begin_span (Span.current ()) ~parent:wf_span ~at:!ready ~category:"stage"
              ~label:(Printf.sprintf "stage %d" stage_index)
              ()
          in
          if stage_span <> Span.none then wfd.Wfd.span <- stage_span;
          let durations = exec_stage ectx ~ready:!ready nodes in
          let placements =
            Hostos.Sched.schedule ~cores:config.cores ~ready:!ready
              ~dispatch_latency:config.dispatch_latency durations
          in
          ready := record_stage ectx ~stage_index ~ready:!ready ~durations ~placements;
          wfd.Wfd.span <- wf_span;
          Span.end_span (Span.current ()) stage_span ~at:!ready)
        (Workflow.stages workflow);
      (* (7) after the last function completes, as-visor destroys the
         WFD and reclaims the resources. *)
      let finish = !ready in
      Span.end_span (Span.current ()) wf_span ~at:finish;
      Trace.recordf (Trace.current ()) ~at:finish ~category:"visor" ~label:"wfd-destroyed"
        "wfd%d" wfd.Wfd.id;
      build_report ectx ~finish ~cold_fallback:(Clock.now clock) ~admission)

let cold_start_only ?(config = default_config) () =
  let noop = bind (fun _ctx ~instance:_ ~total:_ -> ()) in
  let workflow =
    Workflow.create_exn ~name:"no-ops"
      ~nodes:
        [
          {
            Workflow.node_id = "noop";
            language = Workflow.Rust;
            instances = 1;
            required_modules = [];
          };
        ]
      ~edges:[]
  in
  let report = run_once ~config ~workflow ~bindings:[ ("noop", noop) ] () in
  report.cold_start


let run ?(config = default_config) ~workflow ~bindings () =
  match config.retry with
  | No_retry | Retry_function _ -> run_once ~config ~workflow ~bindings ()
  | Retry_workflow max_attempts ->
      (* Idempotent functions: a failed run is retried in a brand new
         WFD; inputs are still staged on the (shared) disk image.  The
         function-level restart counter is carried across attempts so
         restarts performed inside failed attempts are not dropped, and
         a hung workflow (detected by the visor's liveness watchdog) is
         retried like any other failed attempt. *)
      let carried = ref 0 in
      let max_attempts = Stdlib.max 1 max_attempts in
      let rec attempt n =
        match run_once ~retries:carried ~config ~workflow ~bindings () with
        | report -> { report with retries = report.retries + (n - 1) }
        | exception (Function_failed _ | Function_hung _) when n < max_attempts ->
            attempt (n + 1)
      in
      attempt 1

let max_attempts_of config =
  match config.retry with
  | Retry_workflow n -> Stdlib.max 1 n
  | No_retry | Retry_function _ -> 1

(* --- Multi-tenant serving layer ----------------------------------- *)

module Server = struct
  type request = { endpoint : string; arrival : Units.time }

  type response = {
    r_endpoint : string;
    r_arrival : Units.time;
    r_finish : Units.time;
    r_latency : Units.time;
    r_warm : bool;
    r_ok : bool;
    r_attempts : int;
    r_retries : int;
  }

  type summary = {
    sm_completed : int;
    sm_failed : int;
    sm_duration : Units.time;
    sm_throughput_rps : float;
    sm_mean_latency : Units.time;
    sm_p50_latency : Units.time;
    sm_p99_latency : Units.time;
    sm_max_inflight : int;
    sm_warm_starts : int;
    sm_cold_starts : int;
    sm_adm_hits : int;
    sm_adm_scans : int;
    sm_evictions : int;
    sm_templates_live : int;
    sm_machine_peak_rss : int;
    sm_latency_sketched : bool;
  }

  type registration = {
    reg_workflow : Workflow.t;
    reg_bindings : (string * binding) list;
  }

  (* A warm template: a WFD whose entry table, preloaded modules and
     booted runtime state were paid for once, off the request path.
     Requests bind from its pool instead of cold-booting.  Templates
     thread an intrusive doubly-linked recency list (head = most
     recent), so touch and LRU eviction are O(1) with no membership
     scan. *)
  type template = {
    tpl_pool : Wfd.pool;
    tpl_engine : bool;
    tpl_python : bool;
    tpl_build : Units.time;
    tpl_ep : string;
    tpl_rss : int;  (* resident size at install; templates are frozen *)
    mutable tpl_prev : template option;  (* towards most recent *)
    mutable tpl_next : template option;  (* towards least recent *)
    mutable tpl_linked : bool;
  }

  (* Windowed telemetry, opt-in via [enable_telemetry].  Every series
     is recorded from the sequential merge loop — observations land in
     merged-virtual-timeline order, so the exported timeseries, SLO
     alert instants and burn rates are byte-identical at any host
     domain count without any shard merging of their own. *)
  type telemetry = {
    tel_ts : Timeseries.t;
    tel_slos : Slo.t list;
    tel_requests : Timeseries.series;  (* serve.requests, per window *)
    tel_errors : Timeseries.series;
    tel_warm : Timeseries.series;  (* warm attempt starts *)
    tel_cold : Timeseries.series;  (* cold-boot attempt starts *)
    tel_recycle : Timeseries.series;  (* shells offered for recycling *)
    tel_inflight : Timeseries.series;  (* per-window high watermark *)
    tel_latency : Timeseries.dist;  (* serve.latency_ns *)
    tel_by_ep :
      (string, Timeseries.series * Timeseries.series * Timeseries.dist) Hashtbl.t;
        (* per-endpoint (requests, errors, latency), labelled names *)
  }

  type t = {
    scfg : config;
    pool_cap : int;
    warm_enabled : bool;
    table : (string, registration) Hashtbl.t;
    templates : (string, template) Hashtbl.t;
    adm : admission_cache;
    codec : Wasm.Compile_cache.t;
        (* Shared across all requests and warm clones: identical
           modules compile once on the host, like the admission cache
           shares scan verdicts.  Virtual time is unaffected. *)
    proc_table : Hostos.Process.t;
    cpu : Hostos.Sched.pool;
    mutable lru_head : template option;  (* most recently used *)
    mutable lru_tail : template option;  (* least recently used *)
    mutable pool_bytes : int;  (* cached sum of pooled template rss *)
    obs_every : int;  (* span/trace sampling: keep 1 request in k *)
    obs_phase : int;
    sketch_lat : bool;
        (* true: serve latency percentiles come from a t-digest and no
           raw latencies are retained — O(1) memory at any request
           count.  false (default): exact retained-sample percentiles,
           byte-identical to every earlier release. *)
    mutable evicted : int;
    mutable warm_hit_count : int;
    mutable cold_boot_count : int;
    mutable machine_peak : int;
    mutable doomed : Wfd.pool list;
        (* Retired pools of evicted templates a planned request may
           still bind from: drained only once no trajectory can (end of
           a serve window / [shutdown]). *)
    mutable tel : telemetry option;
  }

  let create ?(config = default_config) ?(pool_mem_cap = 512 * 1024 * 1024)
      ?(warm = true) ?(sample_every = 1) ?(sample_seed = 0)
      ?(sketch_latency = false) () =
    if pool_mem_cap < 0 then invalid_arg "Visor.Server.create: negative pool cap";
    if sample_every < 1 then
      invalid_arg "Visor.Server.create: sample_every must be >= 1";
    let codec =
      match config.code_cache with Some c -> c | None -> Wasm.Compile_cache.create ()
    in
    {
      scfg = { config with code_cache = Some codec };
      pool_cap = pool_mem_cap;
      warm_enabled = warm;
      table = Hashtbl.create 8;
      templates = Hashtbl.create 8;
      adm = (match config.admission with Some c -> c | None -> admission_cache ());
      codec;
      proc_table = Hostos.Process.create_table ();
      cpu = Hostos.Sched.pool ~cores:config.cores;
      lru_head = None;
      lru_tail = None;
      pool_bytes = 0;
      obs_every = sample_every;
      obs_phase = ((sample_seed mod sample_every) + sample_every) mod sample_every;
      sketch_lat = sketch_latency;
      evicted = 0;
      warm_hit_count = 0;
      cold_boot_count = 0;
      machine_peak = 0;
      doomed = [];
      tel = None;
    }

  let enable_telemetry t ?window ?retention ?(slos = []) () =
    let ts = Timeseries.create ?width:window ?retention () in
    let bucket = Timeseries.width ts in
    t.tel <-
      Some
        {
          tel_ts = ts;
          tel_slos = List.map (fun s -> Slo.create ~bucket s) slos;
          tel_requests = Timeseries.counter ts "serve.requests";
          tel_errors = Timeseries.counter ts "serve.errors";
          tel_warm = Timeseries.counter ts "serve.warm_hits";
          tel_cold = Timeseries.counter ts "serve.cold_boots";
          tel_recycle = Timeseries.counter ts "serve.recycle_releases";
          tel_inflight = Timeseries.gauge ts "serve.inflight";
          tel_latency = Timeseries.dist ts "serve.latency_ns";
          tel_by_ep = Hashtbl.create 8;
        }

  let telemetry t = Option.map (fun tel -> tel.tel_ts) t.tel
  let slo_monitors t = match t.tel with None -> [] | Some tel -> tel.tel_slos

  (* All monitors' alerts on one timeline: sort by instant, ties by
     SLO name — stable and deterministic. *)
  let slo_alerts t =
    slo_monitors t
    |> List.concat_map Slo.alerts
    |> List.stable_sort (fun (a : Slo.alert) (b : Slo.alert) ->
           match Units.compare a.Slo.al_at b.Slo.al_at with
           | 0 -> String.compare a.Slo.al_slo b.Slo.al_slo
           | c -> c)

  let ep_series tel ep =
    match Hashtbl.find_opt tel.tel_by_ep ep with
    | Some v -> v
    | None ->
        let kv = [ ("endpoint", ep) ] in
        let v =
          ( Timeseries.counter tel.tel_ts (Metrics.labels "serve.requests" kv),
            Timeseries.counter tel.tel_ts (Metrics.labels "serve.errors" kv),
            Timeseries.dist tel.tel_ts (Metrics.labels "serve.latency_ns" kv) )
        in
        Hashtbl.replace tel.tel_by_ep ep v;
        v

  let register t ~endpoint ~workflow ~bindings () =
    if Hashtbl.mem t.table endpoint then
      invalid_arg
        (Printf.sprintf "Visor.Server.register: endpoint %s already bound" endpoint);
    List.iter
      (fun (n : Workflow.node) -> ignore (lookup_binding bindings n.Workflow.node_id))
      workflow.Workflow.nodes;
    Hashtbl.replace t.table endpoint
      { reg_workflow = workflow; reg_bindings = bindings }

  let endpoints t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

  let pool_rss t = t.pool_bytes

  (* Machine resident memory is the live template pool plus whatever
     the in-flight requests hold.  Requests live in private process
     tables (one per trajectory), so the caller passes their sum;
     [t.proc_table] is not consulted directly — it still carries
     deferred-destroy templates. *)
  let note_rss ?(live = 0) t =
    t.machine_peak <- Stdlib.max t.machine_peak (t.pool_bytes + live)

  (* --- O(1) recency list over pooled templates --------------------- *)

  let lru_unlink t tpl =
    if tpl.tpl_linked then begin
      (match tpl.tpl_prev with
      | Some p -> p.tpl_next <- tpl.tpl_next
      | None -> t.lru_head <- tpl.tpl_next);
      (match tpl.tpl_next with
      | Some n -> n.tpl_prev <- tpl.tpl_prev
      | None -> t.lru_tail <- tpl.tpl_prev);
      tpl.tpl_prev <- None;
      tpl.tpl_next <- None;
      tpl.tpl_linked <- false
    end

  let lru_push_front t tpl =
    tpl.tpl_prev <- None;
    tpl.tpl_next <- t.lru_head;
    (match t.lru_head with Some h -> h.tpl_prev <- Some tpl | None -> ());
    t.lru_head <- Some tpl;
    (match t.lru_tail with None -> t.lru_tail <- Some tpl | Some _ -> ());
    tpl.tpl_linked <- true

  let touch t tpl =
    match t.lru_head with
    | Some h when h == tpl -> ()
    | _ ->
        lru_unlink t tpl;
        lru_push_front t tpl

  let pool_size t = Hashtbl.length t.templates

  let evictions t = t.evicted
  let warm_hits t = t.warm_hit_count
  let cold_boots t = t.cold_boot_count
  let admission t = t.adm
  let code_cache t = t.codec

  let evict_lru t =
    match t.lru_tail with
    | None -> ()
    | Some tpl ->
        (* Deferred drain: a request planned against this template in
           the serve prologue may bind from it on a worker domain
           later, so the pool is only retired (no more shells pooled)
           and drained at the next quiescent point. *)
        lru_unlink t tpl;
        Wfd.retire tpl.tpl_pool;
        t.doomed <- tpl.tpl_pool :: t.doomed;
        Hashtbl.remove t.templates tpl.tpl_ep;
        t.pool_bytes <- t.pool_bytes - tpl.tpl_rss;
        t.evicted <- t.evicted + 1;
        Trace.recordf (Trace.current ()) ~at:Units.zero ~category:"server" ~label:"pool-evict"
          "template %s evicted (LRU)" tpl.tpl_ep

  let flush_doomed t =
    List.iter Wfd.drain t.doomed;
    t.doomed <- []

  (* Build the warm template for an endpoint: full WFD boot, entry
     table, the workflow's declared modules preloaded, and the WASM
     engine / CPython booted for the languages the workflow uses.  All
     of it charged to the template's own clock — off any request's
     critical path. *)
  let build_template t endpoint reg =
    let clock = Clock.create () in
    let tpl_span =
      Span.begin_span (Span.current ()) ~parent:Span.none ~at:(Clock.now clock)
        ~category:"template" ~label:("template " ^ endpoint) ()
    in
    let wfd =
      Wfd.create ~features:t.scfg.features ?vfs:t.scfg.vfs ?fault:t.scfg.fault
        ~proc_table:t.proc_table ~clock
        ~workflow_name:(endpoint ^ ":template") ()
    in
    wfd.Wfd.span <- tpl_span;
    Clock.advance clock Cost.entry_table_init;
    if not t.scfg.features.Wfd.on_demand then Libos.load_all wfd ~clock
    else
      List.iter (Libos.load_module wfd ~clock)
        (Workflow.required_modules reg.reg_workflow);
    let langs =
      List.sort_uniq compare
        (List.map (fun (n : Workflow.node) -> n.Workflow.language)
           reg.reg_workflow.Workflow.nodes)
    in
    let needs_engine =
      List.exists (function Workflow.C | Workflow.Python -> true | Workflow.Rust -> false) langs
    in
    let needs_python = List.mem Workflow.Python langs in
    if needs_engine then begin
      let runtime =
        match t.scfg.wasm_runtime with Some r -> r | None -> Wasm.Runtime.wasmtime
      in
      Clock.advance clock runtime.Wasm.Runtime.startup
    end;
    if needs_python then Clock.advance clock Wasm.Runtime.cpython_init;
    wfd.Wfd.span <- Span.none;
    Span.end_span (Span.current ()) tpl_span ~at:(Clock.now clock);
    Trace.recordf (Trace.current ()) ~at:(Clock.now clock) ~category:"server"
      ~label:"template-built" "wfd%d for %s" wfd.Wfd.id endpoint;
    {
      tpl_pool = Wfd.pool wfd;
      tpl_engine = needs_engine;
      tpl_python = needs_python;
      tpl_build = Clock.now clock;
      tpl_ep = endpoint;
      tpl_rss = Hostos.Process.rss t.proc_table wfd.Wfd.pid;
      tpl_prev = None;
      tpl_next = None;
      tpl_linked = false;
    }

  (* Install a template under the memory cap, evicting least-recently
     used templates until it fits.  A template bigger than the whole
     cap is not kept. *)
  let install_template t endpoint tpl =
    let rss = tpl.tpl_rss in
    if rss > t.pool_cap then begin
      Wfd.drain tpl.tpl_pool;
      None
    end
    else begin
      while t.pool_bytes + rss > t.pool_cap && Hashtbl.length t.templates > 0 do
        evict_lru t
      done;
      Hashtbl.replace t.templates endpoint tpl;
      t.pool_bytes <- t.pool_bytes + rss;
      touch t tpl;
      note_rss t;
      Some tpl
    end

  let find_registration t endpoint =
    match Hashtbl.find_opt t.table endpoint with
    | Some reg -> reg
    | None -> raise Not_found

  let prewarm t ~endpoint =
    let reg = find_registration t endpoint in
    if not t.warm_enabled then None
    else
      match Hashtbl.find_opt t.templates endpoint with
      | Some tpl ->
          touch t tpl;
          Some tpl.tpl_build
      | None -> (
          match install_template t endpoint (build_template t endpoint reg) with
          | Some tpl -> Some tpl.tpl_build
          | None -> None)

  (* --- Host-parallel serving --------------------------------------- *)

  (* [serve_fold] runs in three phases:

     Prologue (sequential): requests are walked in arrival-event order.
     Admission verdicts come off the shared cache, warm-or-cold boot
     plans are fixed against the template pool (cold boots seed their
     template here, off every request's critical path), WFD id ranges
     are reserved and fault plans split per submission index.

     Trajectories (parallel): each admitted request's full execution —
     every boot and stage of every workflow-level attempt — runs on a
     private relative timeline whose zero is the instant the attempt
     starts.  All collector writes land in per-segment shards; stage
     ready times come from a private core pool of the machine's width.
     On-CPU durations are start-time-invariant, so computing them
     before the real start instants are known loses nothing.

     Merge (sequential): the event queue replays arrivals and stage
     completions in virtual time exactly as the sequential server did,
     placing each precomputed stage's durations on the *shared* core
     pool and importing each segment's shard at its real event instant.
     Nothing here depends on how many domains ran phase two, which is
     what makes `--domains 1` and `--domains N` byte-identical. *)

  type boot_plan = Warm of template | Cold

  (* One boot or stage of a trajectory: its collector shard, the
     private-timeline instant its frame starts at, the task durations
     to place on the shared pool, and the request's resident set once
     the segment is done. *)
  type segment = {
    sg_shard : Par.shard;
    sg_base : Units.time;
    sg_durations : Units.time list;
    sg_rss : int;
  }

  type attempt_traj = {
    at_warm : bool;
    at_wfd_id : int;
    at_boot : segment;
    at_boot_elapsed : Units.time;
    at_stages : segment list;
    at_failed : [ `Hang | `Failure ] option;
        (* The stage after [at_stages] raised; its partial work is in
           [at_fail_seg]. *)
    at_fail_seg : segment option;
  }

  type traj = {
    tj_attempts : attempt_traj list;  (* executed attempts, in order *)
    tj_retries : int;  (* function restarts across all attempts *)
    tj_released : bool;
        (* the final attempt's WFD went back to its template's pool —
           the deterministic per-request recycle signal (see
           [Wfd.release]) *)
  }

  type plan = {
    pl_reg : registration;
    pl_boots : boot_plan array;  (* one per potential attempt *)
    pl_base : int;  (* reserved WFD id range *)
    pl_fault : Fault.t option;  (* per-request fault plan split *)
  }

  (* Fix the boot type of every potential attempt of one request from
     the pool state at prologue time.  Attempt 1 follows the pool: a
     pooled template means warm, otherwise cold (seeding the template
     for later requests, like the background prewarm a first cold start
     kicks off).  Retry attempts reboot after their predecessor fails,
     by which point the endpoint's template exists unless seeding
     failed — so they are warm whenever attempt 1 was warm or seeded. *)
  let plan_boots t endpoint reg ~max_attempts =
    let first =
      match if t.warm_enabled then Hashtbl.find_opt t.templates endpoint else None with
      | Some tpl ->
          touch t tpl;
          `Warm tpl
      | None ->
          if t.warm_enabled then
            match install_template t endpoint (build_template t endpoint reg) with
            | Some tpl -> `Cold_seeded tpl
            | None -> `Cold
          else `Cold
    in
    Array.init max_attempts (fun k ->
        match first with
        | `Warm tpl -> Warm tpl
        | `Cold_seeded tpl -> if k = 0 then Cold else Warm tpl
        | `Cold -> Cold)

  (* Compute one request's trajectory.  Runs on any domain: every
     observable write goes to a segment shard, WFD ids come from the
     request's reserved namespace, faults and the disk image are
     request-private (unless the server was configured with a shared
     pre-staged disk, in which case [serve_fold] stays on one domain). *)
  let run_trajectory t ~cfg ~endpoint ~(reg : registration) ~boots ~fault_child
      =
    Hotspot.with_section "serve.trajectory" @@ fun () ->
    let scfg =
      match fault_child with
      | Some _ as f -> { t.scfg with fault = f }
      | None -> t.scfg
    in
    let stages = Workflow.stages reg.reg_workflow in
    let retries = ref 0 in
    let released = ref false in
    let max_a = Array.length boots in
    let rec attempts_from a acc =
      let proc_table = Hostos.Process.acquire_table () in
      let clock = Clock.create () in
      let boot_sh = Par.acquire_shard cfg in
      let boot_tpl =
        match boots.(a - 1) with Warm tpl -> Some tpl | Cold -> None
      in
      let wfd, rt, warm =
        Hotspot.with_section "boot" @@ fun () ->
        Par.with_shard boot_sh (fun () ->
            let category = if a = 1 then "boot" else "retry" in
            let boot_span =
              let sp = Span.current () in
              if Span.enabled sp then
                Span.begin_span sp ~parent:Span.none ~at:Units.zero ~category
                  ~label:(category ^ "-boot " ^ endpoint)
                  ()
              else Span.none
            in
            Clock.advance clock Cost.visor_dispatch;
            let wfd, rt, warm =
              match boots.(a - 1) with
              | Warm tpl ->
                  (* Every warm attempt binds through the template's
                     pool; a fault-free one may take a shell another
                     domain released, which changes no virtual
                     observable. *)
                  let wfd =
                    Wfd.bind ?fault:fault_child tpl.tpl_pool
                      ~scratch_disk:(Option.is_none scfg.vfs) ~proc_table ~clock
                  in
                  wfd.Wfd.span <- boot_span;
                  Libos.attach_warm wfd ~clock;
                  if tpl.tpl_engine || tpl.tpl_python then
                    Clock.advance clock Cost.warm_runtime_resume;
                  ( wfd,
                    { engine_started = tpl.tpl_engine; python_booted = tpl.tpl_python },
                    true )
              | Cold ->
                  let wfd =
                    Wfd.create ~features:scfg.features ?vfs:scfg.vfs
                      ?fault:scfg.fault ~proc_table ~clock
                      ~workflow_name:(endpoint ^ ":" ^ reg.reg_workflow.Workflow.wf_name)
                      ()
                  in
                  wfd.Wfd.span <- boot_span;
                  Clock.advance clock Cost.entry_table_init;
                  if not scfg.features.Wfd.on_demand then Libos.load_all wfd ~clock;
                  (wfd, { engine_started = false; python_booted = false }, false)
            in
            Span.end_span (Span.current ()) boot_span ~at:(Clock.now clock);
            Span.set_attr (Span.current ()) boot_span "warm" (string_of_bool warm);
            (* Function spans become shard roots; the merge re-parents
               them under the real stage spans. *)
            wfd.Wfd.span <- Span.none;
            (wfd, rt, warm))
      in
      let boot_seg =
        {
          sg_shard = boot_sh;
          sg_base = Units.zero;
          sg_durations = [];
          sg_rss = Hostos.Process.total_rss proc_table;
        }
      in
      let boot_elapsed = Clock.now clock in
      let body () =
            let ectx =
              make_exec_ctx ~config:scfg ~bindings:reg.reg_bindings ~wfd ~rt
                ~retries ~t0:Units.zero
            in
            (* Stage ready times on the private timeline come from a
               private pool of the same width as the shared one: gaps
               here are never larger than the contended gaps the merge
               produces, so the WFD's internal clocks stay behind every
               real stage start.  The pool is a domain-local scratch
               arena reset per attempt, never allocated per attempt. *)
            let priv = Hostos.Sched.scratch ~cores:scfg.cores in
            let rel_ready = ref boot_elapsed in
            let done_stages = ref [] in
            let failure = ref None in
            (try
               List.iter
                 (fun nodes ->
                   let sh = Par.acquire_shard cfg in
                   match
                     Hotspot.with_section "stage.exec" (fun () ->
                         Par.with_shard sh (fun () ->
                             exec_stage ectx ~ready:!rel_ready nodes))
                   with
                   | durations ->
                       let placements =
                         Hostos.Sched.schedule_on priv ~ready:!rel_ready
                           ~dispatch_latency:scfg.dispatch_latency durations
                       in
                       done_stages :=
                         {
                           sg_shard = sh;
                           sg_base = !rel_ready;
                           sg_durations = durations;
                           sg_rss = Hostos.Process.total_rss proc_table;
                         }
                         :: !done_stages;
                       rel_ready := Hostos.Sched.makespan placements
                   | exception ((Function_failed _ | Function_hung _) as e) ->
                       let kind =
                         match e with Function_hung _ -> `Hang | _ -> `Failure
                       in
                       failure :=
                         Some
                           ( kind,
                             {
                               sg_shard = sh;
                               sg_base = !rel_ready;
                               sg_durations = [];
                               sg_rss = Hostos.Process.total_rss proc_table;
                             } );
                       raise Exit)
                 stages
             with Exit -> ());
            {
              at_warm = warm;
              at_wfd_id = wfd.Wfd.id;
              at_boot = boot_seg;
              at_boot_elapsed = boot_elapsed;
              at_stages = List.rev !done_stages;
              at_failed = Option.map fst !failure;
              at_fail_seg = Option.map snd !failure;
            }
      in
      let at =
        match body () with
        | at -> at
        | exception e ->
            Wfd.destroy wfd;
            raise e
      in
      (* A clean warm finish returns its WFD to the template's pool
         (host-only reset on this worker domain); failures and cold
         boots tear down. *)
      (match boot_tpl with
      | Some tpl when at.at_failed = None ->
          released := Wfd.release tpl.tpl_pool wfd
      | Some _ | None -> Wfd.destroy wfd);
      (* The attempt record never references the process table (RSS is
         sampled into the segments), and a pooled shell holds no
         process entry — so the per-attempt table recirculates on this
         worker domain. *)
      Hostos.Process.release_table proc_table;
      if at.at_failed <> None && a < max_a then attempts_from (a + 1) (at :: acc)
      else List.rev (at :: acc)
    in
    let attempts = attempts_from 1 [] in
    { tj_attempts = attempts; tj_retries = !retries; tj_released = !released }

  (* Merge-phase state of one request. *)
  type mstate = {
    ms_req : request;
    ms_index : int;  (* global arrival-order index *)
    ms_sampled : bool;  (* spans/trace kept for this request *)
    ms_traj : traj option;  (* [None]: rejected at admission *)
    mutable ms_span : Span.id;
    mutable ms_attempts_left : attempt_traj list;
    mutable ms_attempt : attempt_traj option;  (* currently executing *)
    mutable ms_attempt_no : int;
    mutable ms_stages_left : segment list;
    mutable ms_rss : int;
    mutable ms_attempt_began : Units.time;
        (* start instant of the executing attempt, for the
           per-execution [visor.e2e_ns] observation *)
  }

  type ev = Arrival of mstate | Advance of mstate

  (* Event priority classes: every arrival at instant T precedes every
     stage completion at T, exactly as when all arrivals were enqueued
     before the drain started. *)
  let pri_arrival = 0
  let pri_advance = 1

  (* Prologue for one request: admission verdict off the shared cache,
     warm-or-cold boot plan fixed against the template pool (a cold
     boot seeds the template here, off every request's critical path),
     WFD id range reserved and the fault plan split by global arrival
     index. *)
  let plan_request t ~share_disk ~max_attempts ~index (r : request) =
    let reg = find_registration t r.endpoint in
    match admit_images ~cache:t.adm reg.reg_bindings with
    | (_ : Units.time) ->
        let boots = plan_boots t r.endpoint reg ~max_attempts in
        let base = Wfd.reserve_ids max_attempts in
        let fault_child =
          match t.scfg.fault with
          | Some plan when not share_disk -> Some (Fault.child plan ~index)
          | Some _ | None -> None
        in
        Some
          { pl_reg = reg; pl_boots = boots; pl_base = base; pl_fault = fault_child }
    | exception Admission_failed _ -> None

  (* [serve_fold] pulls requests lazily (arrivals must be
     nondecreasing) and pipelines them through the three phases in
     windows, so live memory is O(window + in-flight), never O(total):

     Prologue (sequential): the next [window] requests are walked in
     arrival order and planned against the shared caches and pool.

     Trajectories (parallel): the window's admitted requests execute on
     private relative timelines across domains, collector writes going
     to per-segment shards.  On-CPU durations are start-time-invariant,
     so computing them before the real start instants are known loses
     nothing.

     Merge (sequential): one event queue replays arrivals and stage
     completions in virtual time over the *shared* core pool, importing
     each segment's shard at its real instant.  A new window is planned
     exactly when the earliest unplanned arrival is due no later than
     the next queued event, so the merged timeline — and therefore all
     virtual output — is independent of the window size and of how many
     domains ran the trajectories.

     When the server samples observability (sample_every = k > 1), only
     every k-th request (by arrival index, phase seed mod k) carries
     spans and trace events; metrics and counters stay exact for every
     request.  With k = 1 output is bit-identical to always-on.

     Each response is handed to the caller's [f] at its completion
     instant (completion order — the merged virtual timeline) and never
     stored; [serve] is the fold that collects them. *)
  let serve_fold t ?(window = 2048) next ~init ~f =
    if window < 1 then invalid_arg "Visor.Server.serve_fold: window must be >= 1";
    let max_attempts = max_attempts_of t.scfg in
    let share_disk = t.scfg.vfs <> None in
    let base_cfg = Par.shard_config () in
    let q : ev Eventq.t = Eventq.create () in
    let pending = ref (next ()) in
    let next_index = ref 0 in
    let last_arrival = ref Units.zero in
    let plan_window () =
      (* Pull up to [window] requests, in arrival order. *)
      let batch = ref [] in
      let filled = ref 0 in
      let continue = ref true in
      while !continue && !filled < window do
        match !pending with
        | None -> continue := false
        | Some (r : request) ->
            if Units.( < ) r.arrival !last_arrival then
              invalid_arg
                "Visor.Server.serve_fold: arrivals must be nondecreasing";
            last_arrival := r.arrival;
            batch := (!next_index, r) :: !batch;
            incr next_index;
            incr filled;
            pending := next ()
      done;
      let batch = List.rev !batch in
      (* Prologue, in arrival order. *)
      let planned =
        Hotspot.with_section "serve.prologue" @@ fun () ->
        List.map
          (fun (i, r) ->
            let sampled =
              t.obs_every <= 1 || i mod t.obs_every = t.obs_phase
            in
            (i, r, sampled, plan_request t ~share_disk ~max_attempts ~index:i r))
          batch
      in
      (* Trajectories: host-parallel, shard-isolated.  An unsampled
         request's shards are created with spans and trace off, so it
         allocates no observability state at all. *)
      let tasks =
        Array.of_list
          (List.map
             (fun (_, (r : request), sampled, plan) ->
               match plan with
               | None -> fun () -> None
               | Some p ->
                   let cfg =
                     {
                       Par.cfg_span_on = base_cfg.Par.cfg_span_on && sampled;
                       cfg_trace_on = base_cfg.Par.cfg_trace_on && sampled;
                     }
                   in
                   fun () ->
                     Wfd.with_id_namespace ~base:p.pl_base (fun () ->
                         Some
                           (run_trajectory t ~cfg ~endpoint:r.endpoint
                              ~reg:p.pl_reg ~boots:p.pl_boots
                              ~fault_child:p.pl_fault)))
             planned)
      in
      let trajs =
        if share_disk then Array.map (fun f -> f ()) tasks else Par.run tasks
      in
      (match t.scfg.fault with
      | Some plan ->
          List.iter
            (fun (_, _, _, pl) ->
              match pl with
              | Some { pl_fault = Some c; _ } -> Fault.absorb plan c
              | Some { pl_fault = None; _ } | None -> ())
            planned
      | None -> ());
      List.iteri
        (fun k (i, r, sampled, _) ->
          let ms =
            {
              ms_req = r;
              ms_index = i;
              ms_sampled = sampled;
              ms_traj = trajs.(k);
              ms_span = Span.none;
              ms_attempts_left = [];
              ms_attempt = None;
              ms_attempt_no = 0;
              ms_stages_left = [];
              ms_rss = 0;
              ms_attempt_began = Units.zero;
            }
          in
          Eventq.push q ~at:r.arrival ~pri:pri_arrival (Arrival ms))
        planned;
      (* Every planned trajectory has executed, so templates evicted
         while planning this window can die now — keeping the doomed
         list from growing with the run. *)
      flush_doomed t
    in
    (* Plan while the earliest unplanned arrival is due no later than
       the next queued event (arrivals beat same-instant completions,
       so <= , not <). *)
    let rec pump () =
      match !pending with
      | None -> ()
      | Some (r : request) -> (
          match Eventq.peek q with
          | Some (at, _) when Units.( < ) at r.arrival -> ()
          | _ ->
              plan_window ();
              pump ())
    in
    let acc = ref init in
    let lat = if t.sketch_lat then Stats.sketched () else Stats.create () in
    let inflight_now = ref 0 in
    let max_inflight = ref 0 in
    let completed = ref 0 in
    let failed = ref 0 in
    let first_arrival = ref None in
    let last_finish = ref Units.zero in
    let live_rss = ref 0 in
    let req_histo = Metrics.histogram "server.request_latency_ns" in
    let inflight_gauge = Metrics.gauge "server.max_inflight" in
    let set_rss ms rss =
      live_rss := !live_rss - ms.ms_rss + rss;
      ms.ms_rss <- rss;
      note_rss ~live:!live_rss t
    in
    (* Telemetry records happen here in the merge loop, on the merged
       virtual timeline — deterministic at any domain count for free. *)
    let tel_finish ~now ~endpoint ~latency ~ok ~released =
      match t.tel with
      | None -> ()
      | Some tel ->
          let _, ep_err, ep_lat = ep_series tel endpoint in
          let lat_ns = Int64.to_float (Units.to_ns latency) in
          Timeseries.observe tel.tel_ts tel.tel_latency ~at:now lat_ns;
          Timeseries.observe tel.tel_ts ep_lat ~at:now lat_ns;
          if not ok then begin
            Timeseries.add tel.tel_ts tel.tel_errors ~at:now 1.0;
            Timeseries.add tel.tel_ts ep_err ~at:now 1.0
          end;
          if released then
            Timeseries.add tel.tel_ts tel.tel_recycle ~at:now 1.0;
          List.iter
            (fun m -> Slo.observe_request m ~at:now ~ok ~latency)
            tel.tel_slos
    in
    let finish_request ms ~now ~ok =
      decr inflight_now;
      let latency = Units.sub now ms.ms_req.arrival in
      Span.set_attr (Span.current ()) ms.ms_span "ok" (string_of_bool ok);
      Span.end_span (Span.current ()) ms.ms_span ~at:now;
      Metrics.observe_time req_histo latency;
      if ok then begin
        incr completed;
        Stats.add_time lat latency
      end
      else incr failed;
      tel_finish ~now ~endpoint:ms.ms_req.endpoint ~latency ~ok
        ~released:
          (ok && match ms.ms_traj with Some tj -> tj.tj_released | None -> false);
      last_finish := Units.max !last_finish now;
      acc :=
        f !acc
          {
            r_endpoint = ms.ms_req.endpoint;
            r_arrival = ms.ms_req.arrival;
            r_finish = now;
            r_latency = latency;
            r_warm = (match ms.ms_attempt with Some a -> a.at_warm | None -> false);
            r_ok = ok;
            r_attempts = ms.ms_attempt_no;
            r_retries =
              (match ms.ms_traj with Some tj -> tj.tj_retries | None -> 0);
          };
      set_rss ms 0
    in
    (* Begin the next attempt at [now]: counters, the boot segment's
       shard (its "boot"/"retry" span attaches under the request), and
       the first stage scheduled at boot completion. *)
    let start_attempt ms ~now =
      match ms.ms_attempts_left with
      | [] -> assert false
      | a :: rest ->
          ms.ms_attempt <- Some a;
          ms.ms_attempts_left <- rest;
          ms.ms_attempt_no <- ms.ms_attempt_no + 1;
          ms.ms_stages_left <- a.at_stages;
          ms.ms_attempt_began <- now;
          if a.at_warm then t.warm_hit_count <- t.warm_hit_count + 1
          else t.cold_boot_count <- t.cold_boot_count + 1;
          (match t.tel with
          | None -> ()
          | Some tel ->
              Timeseries.add tel.tel_ts
                (if a.at_warm then tel.tel_warm else tel.tel_cold)
                ~at:now 1.0);
          Par.merge_shard ~attach:ms.ms_span ~offset:now a.at_boot.sg_shard;
          Par.release_shard a.at_boot.sg_shard;
          set_rss ms a.at_boot.sg_rss;
          Eventq.push q ~at:(Units.add now a.at_boot_elapsed) ~pri:pri_advance
            (Advance ms)
    in
    let step ms ~now =
      let a = match ms.ms_attempt with Some a -> a | None -> assert false in
      match ms.ms_stages_left with
      | sg :: rest ->
          let stage_index = List.length a.at_stages - List.length ms.ms_stages_left in
          let stage_span =
            if ms.ms_sampled then
              Span.begin_span (Span.current ()) ~parent:ms.ms_span ~at:now
                ~category:"stage"
                ~label:(Printf.sprintf "stage %d" stage_index)
                ()
            else Span.none
          in
          Par.merge_shard ~attach:stage_span ~offset:(Units.sub now sg.sg_base)
            sg.sg_shard;
          Par.release_shard sg.sg_shard;
          let placements =
            Hostos.Sched.schedule_on t.cpu ~ready:now
              ~dispatch_latency:t.scfg.dispatch_latency sg.sg_durations
          in
          let makespan = Hostos.Sched.makespan placements in
          Metrics.observe_time stage_histo (Units.sub makespan now);
          if ms.ms_sampled then
            Trace.recordf (Trace.current ()) ~at:makespan ~category:"visor"
              ~label:"stage-done" "wfd%d stage %d (%d instances)" a.at_wfd_id
              stage_index
              (List.length sg.sg_durations);
          Span.end_span (Span.current ()) stage_span ~at:makespan;
          ms.ms_stages_left <- rest;
          set_rss ms sg.sg_rss;
          Eventq.push q ~at:makespan ~pri:pri_advance (Advance ms)
      | [] -> (
          (* One workflow execution (attempt) ended: boot through last
             stage — the serving-side analogue of the run path's
             end-to-end observation. *)
          Metrics.observe_time e2e_histo (Units.sub now ms.ms_attempt_began);
          match a.at_failed with
          | None -> finish_request ms ~now ~ok:true
          | Some kind ->
              (* The failed attempt's stage span stays zero-length; its
                 partial function spans still attach under it. *)
              let stage_span =
                if ms.ms_sampled then
                  Span.begin_span (Span.current ()) ~parent:ms.ms_span ~at:now
                    ~category:"stage"
                    ~label:(Printf.sprintf "stage %d" (List.length a.at_stages))
                    ()
                else Span.none
              in
              (match a.at_fail_seg with
              | Some sg ->
                  Par.merge_shard ~attach:stage_span
                    ~offset:(Units.sub now sg.sg_base) sg.sg_shard;
                  Par.release_shard sg.sg_shard
              | None -> ());
              Span.end_span (Span.current ()) stage_span ~at:now;
              if ms.ms_attempts_left <> [] then begin
                if ms.ms_sampled then
                  Trace.recordf (Trace.current ()) ~at:now ~category:"server"
                    ~label:"workflow-retry" "%s attempt %d (%s)" ms.ms_req.endpoint
                    (ms.ms_attempt_no + 1)
                    (match kind with `Hang -> "hang" | `Failure -> "failure");
                start_attempt ms ~now
              end
              else finish_request ms ~now ~ok:false)
    in
    let handle_event now ev =
        match ev with
        | Arrival ms -> (
            (match !first_arrival with
            | None -> first_arrival := Some now
            | Some _ -> ());
            incr inflight_now;
            max_inflight := Stdlib.max !max_inflight !inflight_now;
            Metrics.max_gauge inflight_gauge (float_of_int !inflight_now);
            (match t.tel with
            | None -> ()
            | Some tel ->
                Timeseries.add tel.tel_ts tel.tel_requests ~at:now 1.0;
                Timeseries.add tel.tel_ts tel.tel_inflight ~at:now
                  (float_of_int !inflight_now);
                let ep_req, _, _ = ep_series tel ms.ms_req.endpoint in
                Timeseries.add tel.tel_ts ep_req ~at:now 1.0);
            ms.ms_span <-
              (if ms.ms_sampled then
                 Span.begin_span (Span.current ()) ~parent:Span.none ~at:now
                   ~category:"request" ~label:ms.ms_req.endpoint ()
               else Span.none);
            match ms.ms_traj with
            | Some tj ->
                ms.ms_attempts_left <- tj.tj_attempts;
                start_attempt ms ~now
            | None ->
                (* Rejected at admission: fails immediately, off the
                   execution path. *)
                Span.set_attr (Span.current ()) ms.ms_span "ok" "false";
                Span.end_span (Span.current ()) ms.ms_span ~at:now;
                decr inflight_now;
                incr failed;
                tel_finish ~now ~endpoint:ms.ms_req.endpoint ~latency:Units.zero
                  ~ok:false ~released:false;
                last_finish := Units.max !last_finish now;
                acc :=
                  f !acc
                    {
                      r_endpoint = ms.ms_req.endpoint;
                      r_arrival = ms.ms_req.arrival;
                      r_finish = now;
                      r_latency = Units.zero;
                      r_warm = false;
                      r_ok = false;
                      r_attempts = 0;
                      r_retries = 0;
                    })
        | Advance ms -> step ms ~now
    in
    pump ();
    let rec drive () =
      match Eventq.pop q with
      | None -> ()
      | Some (now, ev) ->
          Hotspot.with_section "serve.merge" (fun () -> handle_event now ev);
          pump ();
          drive ()
    in
    drive ();
    flush_doomed t;
    (* Close out the final partial SLO buckets so alerts pending at
       end-of-run fire at a deterministic instant. *)
    (match t.tel with
    | None -> ()
    | Some tel -> List.iter (fun m -> Slo.finish m ~at:!last_finish) tel.tel_slos);
    let t_start = match !first_arrival with Some a -> a | None -> Units.zero in
    let duration = Units.sub !last_finish t_start in
    let secs = Units.to_sec duration in
    ( !acc,
      {
        sm_completed = !completed;
        sm_failed = !failed;
        sm_duration = duration;
        sm_throughput_rps =
          (if secs <= 0.0 then 0.0 else float_of_int !completed /. secs);
        sm_mean_latency =
          (if Stats.is_empty lat then Units.zero else Stats.mean_time lat);
        sm_p50_latency =
          (if Stats.is_empty lat then Units.zero else Stats.percentile_time lat 50.0);
        sm_p99_latency =
          (if Stats.is_empty lat then Units.zero else Stats.percentile_time lat 99.0);
        sm_max_inflight = !max_inflight;
        sm_warm_starts = t.warm_hit_count;
        sm_cold_starts = t.cold_boot_count;
        sm_adm_hits = t.adm.cache_hits;
        sm_adm_scans = t.adm.cache_scans;
        sm_evictions = t.evicted;
        sm_templates_live = pool_size t;
        sm_machine_peak_rss = t.machine_peak;
        sm_latency_sketched = t.sketch_lat;
      } )

  (* List entry point: sort by arrival (stable, so same-instant
     requests keep list order) and collect the responses in completion
     order. *)
  let serve t requests =
    let rem =
      ref (List.stable_sort (fun a b -> Units.compare a.arrival b.arrival) requests)
    in
    let next () =
      match !rem with
      | [] -> None
      | r :: tl ->
          rem := tl;
          Some r
    in
    let rev, s = serve_fold t next ~init:[] ~f:(fun acc r -> r :: acc) in
    (List.rev rev, s)

  let shutdown t =
    Hashtbl.iter (fun _ tpl -> Wfd.drain tpl.tpl_pool) t.templates;
    Hashtbl.reset t.templates;
    t.lru_head <- None;
    t.lru_tail <- None;
    t.pool_bytes <- 0;
    flush_doomed t
end
