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
  retry : retry_policy;
  cpu_quota : float option;
  fault : Fault.t option;
  timeout : Units.time option;
  backoff : backoff;
  admission : admission_cache option;
}

let default_config =
  {
    cores = 64;
    features = Wfd.default_features;
    vfs = None;
    wasm_runtime = None;
    retry = No_retry;
    cpu_quota = None;
    fault = None;
    timeout = None;
    backoff = No_backoff;
    admission = None;
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
let scan_image clock image =
  let kb = (Isa.Image.code_size image + 1023) / 1024 in
  Clock.advance clock (Units.scale Cost.image_scan_per_kb (float_of_int kb));
  match Isa.Rewriter.admit image with Ok _ -> Ok () | Error reason -> Error reason

let admit_image ?cache clock image =
  let verdict =
    match cache with
    | None -> scan_image clock image
    | Some c -> (
        let key =
          let hs = Hotspot.enter "admission.hash" in
          let key = Isa.Image.content_hash image in
          Hotspot.leave hs;
          key
        in
        match Hashtbl.find c.verdicts key with
        | v ->
            c.cache_hits <- c.cache_hits + 1;
            Clock.advance clock Cost.admission_cache_hit;
            v
        | exception Not_found ->
            c.cache_scans <- c.cache_scans + 1;
            let v = scan_image clock image in
            Hashtbl.replace c.verdicts key v;
            v)
  in
  match verdict with Ok () -> () | Error reason -> raise (Admission_failed reason)

let rec admit_all ?cache clock = function
  | [] -> ()
  | (_, { image = None; _ }) :: rest -> admit_all ?cache clock rest
  | (_, { image = Some image; _ }) :: rest ->
      admit_image ?cache clock image;
      admit_all ?cache clock rest

let admit_images ?cache bindings =
  let clock = Clock.create () in
  admit_all ?cache clock bindings;
  Clock.now clock

let lookup_binding bindings id =
  match List.assoc_opt id bindings with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Visor.run: no binding for function %s" id)

let make_fn_ctx config wfd thread language =
  let ctx = Asstd.make_ctx wfd thread language in
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
  mutable ephase_totals : (string, Units.time) Hashtbl.t option;
      (* created by the first kernel that names a phase *)
  mutable epeak_rss : int;
  mutable estage_reports : stage_report list;
}

let make_exec_ctx ~config ~bindings ~wfd ~rt ~retries ~cold_start_mark =
  {
    ecfg = config;
    ebindings = bindings;
    ewfd = wfd;
    rt;
    eretries = retries;
    cold_start_mark;
    ephase_totals = None;
    epeak_rss = 0;
    estage_reports = [];
  }

(* Log a function restart: into the fault plan when one is armed,
   else as a plain trace event. *)
let record_recovery config ~at detail =
  match config.fault with
  | Some plan -> Fault.record_recovery plan ~at ~site:"visor.retry" detail
  | None ->
      let tr = Trace.current () in
      if Trace.enabled tr then
        Trace.recordf tr ~at ~category:"fault" ~label:"visor.retry" "recovered: %s" detail

(* One attempt of one function instance on [ctx]'s thread: the fault
   plan's crash and hang checks, then the kernel, then the watchdog's
   timeout check. *)
let execute config (node : Workflow.node) b i (ctx : Asstd.ctx) ~attempt_start =
  let thread = ctx.Asstd.thread in
  let fn = node.Workflow.node_id in
  (match config.fault with
  | Some plan ->
      if Fault.check ~at:attempt_start plan ~site:Fault.site_fn_crash then
        raise (Fault.Injected { site = Fault.site_fn_crash });
      if Fault.check ~at:attempt_start plan ~site:Fault.site_fn_hang then begin
        match config.timeout with
        | None ->
            (* No watchdog timeout configured: a wedged function thread
               is undetectable. *)
            raise (Function_hung { fn })
        | Some limit ->
            (* The thread wedges; the watchdog kills it when the
               per-function timeout expires. *)
            Clock.advance thread.Wfd.clock limit;
            raise (Timed_out { fn; after = limit })
      end
  | None -> ());
  let hs = Hotspot.enter "stage.kernel" in
  (match b.kernel ctx ~instance:i ~total:node.Workflow.instances with
  | () -> Hotspot.leave hs
  | exception e ->
      Hotspot.leave hs;
      raise e);
  match config.timeout with
  | Some limit when Units.( > ) (Clock.elapsed_since thread.Wfd.clock attempt_start) limit
    ->
      (* The kernel ran past its budget: the watchdog killed it at the
         deadline, the visor observes the kill at the next scheduling
         tick. *)
      raise (Timed_out { fn; after = limit })
  | _ -> ()

(* Run one function instance on [thread] until it succeeds, returning
   the context of the attempt that did.  A crash is contained by MPK
   fault isolation, so under Retry_function the orchestrator recovers
   the function's heap and restarts just this function (3.1). *)
let rec attempt ectx (node : Workflow.node) b i thread n =
  let config = ectx.ecfg in
  let wfd = ectx.ewfd in
  let ctx = make_fn_ctx config wfd thread node.Workflow.language in
  match execute config node b i ctx ~attempt_start:(Clock.now thread.Wfd.clock) with
  | () -> ctx
  | exception (Function_hung _ as e) -> raise e
  | exception error ->
      let fn = node.Workflow.node_id in
      let max_attempts =
        match config.retry with
        | Retry_function n -> Stdlib.max 1 n
        | No_retry | Retry_workflow _ -> 1
      in
      if n >= max_attempts then raise (Function_failed { fn; attempts = n; error })
      else begin
        incr ectx.eretries;
        Stats.Counter.incr retry_counter;
        (* Recover the crashed function's heap unit and restart it in
           the same slot.  The recovery (respawn + restart cost +
           backoff wait) is a "retry" span under the function. *)
        let rsp =
          let sp = Span.current () in
          if Span.enabled sp then
            Span.begin_span sp ~parent:wfd.Wfd.span ~at:(Clock.now thread.Wfd.clock)
              ~category:"retry"
              ~label:(Printf.sprintf "restart %s" fn)
              ()
          else Span.none
        in
        let fresh =
          Wfd.respawn_function_thread wfd ~slot:thread.Wfd.fn_slot ~clock:thread.Wfd.clock
        in
        Clock.advance fresh.Wfd.clock function_restart_cost;
        let wait = backoff_delay config.backoff ~attempt:(n + 1) in
        Clock.advance fresh.Wfd.clock wait;
        Span.end_span (Span.current ()) rsp ~at:(Clock.now fresh.Wfd.clock);
        record_recovery config ~at:(Clock.now fresh.Wfd.clock)
          (Printf.sprintf "restart %s attempt %d (backoff %s)" fn (n + 1)
             (Units.to_string wait));
        attempt ectx node b i fresh (n + 1)
      end

let add_phase totals name t =
  let prev = match Hashtbl.find_opt totals name with Some v -> v | None -> Units.zero in
  Hashtbl.replace totals name (Units.add prev t)

(* Spawn instance [i] of [node] at [start], run it to completion and
   return its on-CPU duration. *)
let exec_instance ectx (node : Workflow.node) b i ~start =
  let config = ectx.ecfg in
  let wfd = ectx.ewfd in
  let spawn_clock = Clock.create ~at:start () in
  (match config.cpu_quota with
  | Some _ -> Clock.advance spawn_clock Hostos.Cgroup.setup_cost
  | None -> ());
  let hs = Hotspot.enter "stage.spawn" in
  let thread = Wfd.spawn_function_thread wfd ~clock:spawn_clock in
  Hotspot.leave hs;
  Clock.sync thread.Wfd.clock spawn_clock;
  Clock.advance thread.Wfd.clock
    (runtime_init_cost config ectx.rt node.Workflow.language ~instance:i);
  (match !(ectx.cold_start_mark) with
  | None -> ectx.cold_start_mark := Some (Clock.now thread.Wfd.clock)
  | Some _ -> ());
  (* The label sprintf only when the span collector is on: with 1-in-k
     request sampling, most requests run with spans off and the eager
     label was pure allocation. *)
  let fn_span =
    let sp = Span.current () in
    if Span.enabled sp then
      Span.begin_span sp ~parent:wfd.Wfd.span ~at:start ~category:"function"
        ~label:(Printf.sprintf "%s#%d" node.Workflow.node_id i)
        ()
    else Span.none
  in
  let saved_span = wfd.Wfd.span in
  if fn_span <> Span.none then wfd.Wfd.span <- fn_span;
  let ctx =
    match attempt ectx node b i thread 1 with
    | ctx -> ctx
    | exception e ->
        (* A terminal failure escapes to the workflow-retry layer; the
           function span stays zero-length and the lost attempt
           surfaces as unattributed ("other") time of the stage. *)
        wfd.Wfd.span <- saved_span;
        raise e
  in
  (match ctx.Asstd.phases with
  | Some phases ->
      let totals =
        match ectx.ephase_totals with
        | Some totals -> totals
        | None ->
            let totals = Hashtbl.create 8 in
            ectx.ephase_totals <- Some totals;
            totals
      in
      Hashtbl.iter (add_phase totals) phases
  | None -> ());
  wfd.Wfd.span <- saved_span;
  let final_clock = ctx.Asstd.thread.Wfd.clock in
  Span.end_span (Span.current ()) fn_span ~at:(Clock.now final_clock);
  let on_cpu = Clock.elapsed_since final_clock start in
  Metrics.observe_time fn_histo on_cpu;
  match config.cpu_quota with
  | Some q -> Hostos.Cgroup.stretch (Hostos.Cgroup.create ~quota:q) on_cpu
  | None -> on_cpu

(* Run every instance of every node of one stage, in node order and
   instance order, each dispatched [Cost.dispatch_latency] after the
   previous one: spawn the function threads, execute the kernels (with
   per-function retry/timeout under the configured policy) and return
   each task's on-CPU duration.  The caller places the durations on
   cores — a private core set for [run_once], the machine-shared pool
   for [Server]. *)
let rec exec_nodes ectx ~dispatch = function
  | [] -> []
  | (node : Workflow.node) :: rest ->
      exec_instances ectx (lookup_binding ectx.ebindings node.Workflow.node_id) node rest
        ~dispatch 0

and exec_instances ectx b (node : Workflow.node) rest ~dispatch i =
  if i >= node.Workflow.instances then exec_nodes ectx ~dispatch rest
  else begin
    let dispatch = Units.add dispatch Cost.dispatch_latency in
    let d = exec_instance ectx node b i ~start:dispatch in
    d :: exec_instances ectx b node rest ~dispatch (i + 1)
  end

let exec_stage ectx ~ready nodes = exec_nodes ectx ~dispatch:ready nodes

(* Record a scheduled stage's report and return its makespan — the next
   stage's ready time. *)
let record_stage ectx ~stage_index ~ready ~durations ~placements =
  let makespan = Hostos.Sched.makespan placements in
  Metrics.observe_time stage_histo (Units.sub makespan ready);
  ectx.epeak_rss <-
    Stdlib.max ectx.epeak_rss (Hostos.Process.total_rss ectx.ewfd.Wfd.proc_table);
  ectx.estage_reports <-
    {
      stage_index;
      instance_durations = durations;
      stage_makespan = Units.sub makespan ready;
      fan_in_waits = Hostos.Sched.fan_in_wait placements;
    }
    :: ectx.estage_reports;
  let tr = Trace.current () in
  if Trace.enabled tr then
    Trace.recordf tr ~at:makespan ~category:"visor" ~label:"stage-done"
      "wfd%d stage %d (%d instances)" ectx.ewfd.Wfd.id stage_index (List.length durations);
  makespan

(* The execution was triggered at virtual instant zero, so [finish] is
   its e2e. *)
let build_report ectx ~finish ~cold_fallback ~admission =
  let wfd = ectx.ewfd in
  Metrics.observe_time e2e_histo finish;
  let stdout = Libos_stdio.output wfd in
  let loaded_modules =
    Hashtbl.fold (fun k () acc -> k :: acc) wfd.Wfd.loaded_modules []
    |> List.sort compare
  in
  {
    e2e = finish;
    cold_start = Option.value !(ectx.cold_start_mark) ~default:cold_fallback;
    admission;
    stage_reports = List.rev ectx.estage_reports;
    phase_totals =
      (match ectx.ephase_totals with
      | Some totals -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
      | None -> [])
      |> List.sort compare;
    entry_misses = wfd.Wfd.entry_misses;
    entry_hits = wfd.Wfd.entry_hits;
    trampoline_crossings = wfd.Wfd.trampoline_crossings;
    peak_rss = ectx.epeak_rss;
    stdout;
    loaded_modules;
    retries = !(ectx.eretries);
  }

(* One attempt in a fresh WFD.  [Retry_workflow] threads three things
   through its attempts: the function-restart count, the first
   attempt's cold-start mark, and [from] — the attempt starts at [!from]
   and moves it to each stage's start, so a failed attempt leaves there
   the instant it failed.  [e2e] and [cold_start] count from the first
   trigger, at zero. *)
let run_once ?(retries = ref 0) ?(cold_start_mark = ref None) ?(from = ref Units.zero)
    ~(config : config) ~workflow ~bindings () =
  (* Check bindings exist up front. *)
  List.iter
    (fun n -> ignore (lookup_binding bindings n.Workflow.node_id))
    workflow.Workflow.nodes;
  let admission = admit_images ?cache:config.admission bindings in
  let proc_table = Hostos.Process.create_table () in
  let clock = Clock.create ~at:!from () in
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
      let tr = Trace.current () in
      if Trace.enabled tr then
        Trace.recordf tr ~at:(Clock.now clock) ~category:"visor" ~label:"wfd-created"
          "wfd%d for %s" wfd.Wfd.id workflow.Workflow.wf_name;
      if not config.features.Wfd.on_demand then Libos.load_all wfd ~clock;
      Span.end_span (Span.current ()) boot_span ~at:(Clock.now clock);
      wfd.Wfd.span <- wf_span;
      let rt = { engine_started = false; python_booted = false } in
      let ectx =
        make_exec_ctx ~config ~bindings ~wfd ~rt ~retries ~cold_start_mark
      in
      let ready = ref (Clock.now clock) in
      List.iteri
        (fun stage_index nodes ->
          from := !ready;
          let stage_span =
            Span.begin_span (Span.current ()) ~parent:wf_span ~at:!ready ~category:"stage"
              ~label:(Printf.sprintf "stage %d" stage_index)
              ()
          in
          if stage_span <> Span.none then wfd.Wfd.span <- stage_span;
          let durations = exec_stage ectx ~ready:!ready nodes in
          let placements =
            Hostos.Sched.schedule ~cores:config.cores ~ready:!ready
              ~dispatch_latency:Cost.dispatch_latency durations
          in
          ready := record_stage ectx ~stage_index ~ready:!ready ~durations ~placements;
          wfd.Wfd.span <- wf_span;
          Span.end_span (Span.current ()) stage_span ~at:!ready)
        (Workflow.stages workflow);
      (* (7) after the last function completes, as-visor destroys the
         WFD and reclaims the resources. *)
      let finish = !ready in
      Span.end_span (Span.current ()) wf_span ~at:finish;
      let tr = Trace.current () in
      if Trace.enabled tr then
        Trace.recordf tr ~at:finish ~category:"visor" ~label:"wfd-destroyed" "wfd%d"
          wfd.Wfd.id;
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
         WFD; inputs are still staged on the (shared) disk image.  Each
         attempt starts at the instant its predecessor failed, the
         failing stage's start (as in [Server]), so [e2e] includes the
         failed attempts; [cold_start] stays the first attempt's.  The
         function-level restart counter is carried across attempts so
         restarts performed inside failed attempts are not dropped, and
         a hung workflow (detected by the visor's liveness watchdog) is
         retried like any other failed attempt. *)
      let retries = ref 0 and cold_start_mark = ref None and from = ref Units.zero in
      let max_attempts = Stdlib.max 1 max_attempts in
      let rec attempt n =
        match run_once ~retries ~cold_start_mark ~from ~config ~workflow ~bindings () with
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

  (* A warm template: a WFD whose entry table, preloaded modules and
     booted runtime state were paid for once, off the request path.
     Requests bind from its pool instead of cold-booting.  It lives
     from its endpoint's first request (or [prewarm]) until
     [shutdown]. *)
  type template = {
    tpl_pool : Wfd.pool;
    tpl_engine : bool;
    tpl_python : bool;
    tpl_build : Units.time;
  }

  type registration = {
    reg_workflow : Workflow.t;
    reg_bindings : (string * binding) list;
    mutable reg_template : template option;
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
    warm_enabled : bool;
    table : (string, registration) Hashtbl.t;
    adm : admission_cache;
    proc_table : Hostos.Process.t;
    cpu : Hostos.Sched.pool;
    mutable pool_bytes : int;  (* sum of the templates' rss *)
    obs_every : int;  (* span/trace sampling: keep 1 request in k *)
    obs_phase : int;
    sketch_lat : bool;
        (* true: serve latency percentiles come from a t-digest and no
           raw latencies are retained — O(1) memory at any request
           count.  false (default): exact retained-sample percentiles,
           byte-identical to every earlier release. *)
    mutable machine_peak : int;
    mutable tel : telemetry option;
  }

  let create ?(config = default_config) ?(warm = true) ?(sample_every = 1)
      ?(sample_seed = 0) ?(sketch_latency = false) () =
    if sample_every < 1 then
      invalid_arg "Visor.Server.create: sample_every must be >= 1";
    if Option.is_some config.vfs then
      invalid_arg "Visor.Server.create: config.vfs is for Visor.run only";
    {
      scfg = config;
      warm_enabled = warm;
      table = Hashtbl.create 8;
      adm = (match config.admission with Some c -> c | None -> admission_cache ());
      proc_table = Hostos.Process.create_table ();
      cpu = Hostos.Sched.pool ~cores:config.cores;
      pool_bytes = 0;
      obs_every = sample_every;
      obs_phase = ((sample_seed mod sample_every) + sample_every) mod sample_every;
      sketch_lat = sketch_latency;
      machine_peak = 0;
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
      { reg_workflow = workflow; reg_bindings = bindings; reg_template = None }

  let endpoints t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

  (* Machine resident memory is the templates plus whatever the
     in-flight requests hold.  Requests live in private process tables
     (one per trajectory), so the caller passes their sum. *)
  let note_rss ?(live = 0) t =
    t.machine_peak <- Stdlib.max t.machine_peak (t.pool_bytes + live)

  (* Build the warm template for an endpoint: full WFD boot, entry
     table, the workflow's declared modules preloaded, and the WASM
     engine / CPython booted for the languages the workflow uses.  All
     of it charged to the template's own clock — off any request's
     critical path.  The registration keeps it until [shutdown], and
     its resident set counts towards the machine's. *)
  let build_template t endpoint reg =
    let clock = Clock.create () in
    let tpl_span =
      Span.begin_span (Span.current ()) ~parent:Span.none ~at:(Clock.now clock)
        ~category:"template" ~label:("template " ^ endpoint) ()
    in
    let wfd =
      Wfd.create ~features:t.scfg.features ?fault:t.scfg.fault
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
    let tr = Trace.current () in
    if Trace.enabled tr then
      Trace.recordf tr ~at:(Clock.now clock) ~category:"server" ~label:"template-built"
        "wfd%d for %s" wfd.Wfd.id endpoint;
    let tpl =
      {
        tpl_pool = Wfd.pool wfd;
        tpl_engine = needs_engine;
        tpl_python = needs_python;
        tpl_build = Clock.now clock;
      }
    in
    reg.reg_template <- Some tpl;
    t.pool_bytes <- t.pool_bytes + Hostos.Process.rss t.proc_table wfd.Wfd.pid;
    note_rss t;
    tpl

  let find_registration t endpoint =
    match Hashtbl.find_opt t.table endpoint with
    | Some reg -> reg
    | None -> raise Not_found

  let prewarm t ~endpoint =
    let reg = find_registration t endpoint in
    if not t.warm_enabled then None
    else
      match reg.reg_template with
      | Some tpl -> Some tpl.tpl_build
      | None -> Some (build_template t endpoint reg).tpl_build

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

  (* One step of a served request, in execution order.  Each carries
     the collector shard it recorded into and, for a stage, the
     private-timeline instant its frame starts at ([base]); [rss] is the
     request's resident set once the step is done. *)
  type segment =
    | Boot of { warm : bool; wfd_id : int; elapsed : Units.time; shard : Par.shard; rss : int }
        (* begins an attempt; its first stage is ready [elapsed] later *)
    | Stage of {
        index : int;
        durations : Units.time list;  (* to place on the shared pool *)
        shard : Par.shard;
        base : Units.time;
        rss : int;
      }
    | Failed of { index : int; hang : bool; shard : Par.shard; base : Units.time }
        (* the stage that raised, with its partial work; ends a failed
           attempt *)

  type traj = {
    tj_segments : segment array;  (* every attempt's, in order *)
    tj_retries : int;  (* function restarts across all attempts *)
    tj_released : bool;
        (* the final attempt's WFD went back to its template's pool —
           the deterministic per-request recycle signal (see
           [Wfd.release]) *)
  }

  (* The trajectory of every request rejected at admission. *)
  let rejected = { tj_segments = [||]; tj_retries = 0; tj_released = false }

  type plan = {
    pl_reg : registration;
    pl_first : boot_plan;  (* the first attempt's boot *)
    pl_retry : boot_plan;  (* the boot of every retry *)
    pl_base : int;  (* reserved WFD id range *)
    pl_fault : Fault.t option;  (* per-request fault plan split *)
  }

  (* Fix the boot type of a request's attempts from the pool state at
     prologue time.  With the pool off every attempt boots cold.  A
     built template means warm.  Otherwise attempt 1 boots cold and
     builds the template now, like the background prewarm a first cold
     start kicks off, so every retry, which reboots after its
     predecessor fails, binds from it. *)
  let plan_boots t endpoint reg =
    if not t.warm_enabled then (Cold, Cold)
    else
      match reg.reg_template with
      | Some tpl ->
          let warm = Warm tpl in
          (warm, warm)
      | None -> (Cold, Warm (build_template t endpoint reg))

  (* Boot the WFD of one attempt under the attempt's boot shard:
     bind a shell from the template's pool (warm) or create one
     (cold), on the attempt's private clock. *)
  let boot_wfd ~(scfg : config) ~endpoint ~(reg : registration) ~fault_child ~proc_table
      ~clock ~first plan =
    let warm = match plan with Warm _ -> true | Cold -> false in
    let boot_span =
      let sp = Span.current () in
      if Span.enabled sp then
        let category = if first then "boot" else "retry" in
        Span.begin_span sp ~parent:Span.none ~at:Units.zero ~category
          ~label:(category ^ "-boot " ^ endpoint)
          ()
      else Span.none
    in
    Clock.advance clock Cost.visor_dispatch;
    let wfd =
      match plan with
      | Warm tpl ->
          (* Every warm attempt binds through the template's pool; a
             fault-free one may take a shell another domain released,
             which changes no virtual observable. *)
          let wfd = Wfd.bind ?fault:fault_child tpl.tpl_pool ~proc_table ~clock in
          wfd.Wfd.span <- boot_span;
          Libos.attach_warm wfd ~clock;
          if tpl.tpl_engine || tpl.tpl_python then
            Clock.advance clock Cost.warm_runtime_resume;
          wfd
      | Cold ->
          let wfd =
            Wfd.create ~features:scfg.features ?fault:scfg.fault ~proc_table ~clock
              ~workflow_name:(endpoint ^ ":" ^ reg.reg_workflow.Workflow.wf_name)
              ()
          in
          wfd.Wfd.span <- boot_span;
          Clock.advance clock Cost.entry_table_init;
          if not scfg.features.Wfd.on_demand then Libos.load_all wfd ~clock;
          wfd
    in
    Span.end_span (Span.current ()) boot_span ~at:(Clock.now clock);
    Span.set_attr (Span.current ()) boot_span "warm" (string_of_bool warm);
    (* Function spans become shard roots; the merge re-parents them
       under the real stage spans. *)
    wfd.Wfd.span <- Span.none;
    wfd

  (* Execute the attempt's stages in order on its private timeline,
     each under its own shard, consing a [Stage] segment onto [acc] for
     each until they are done or one raises a function failure, which
     conses a [Failed] segment instead.  Stage ready times on the
     private timeline come from [priv], a private pool of the same width
     as the shared one: gaps here are never larger than the contended
     gaps the merge produces, so the WFD's internal clocks stay behind
     every real stage start. *)
  let rec run_stages ectx ~cfg ~priv ~proc_table ~ready ~index acc = function
    | [] -> acc
    | nodes :: rest -> (
        let sh = Par.acquire_shard cfg in
        let hs = Hotspot.enter "stage.exec" in
        Par.enter_shard sh;
        match exec_stage ectx ~ready nodes with
        | durations ->
            Par.leave_shard sh;
            Hotspot.leave hs;
            let seg =
              Stage
                {
                  index;
                  durations;
                  shard = sh;
                  base = ready;
                  rss = Hostos.Process.total_rss proc_table;
                }
            in
            let finish =
              Hostos.Sched.makespan_on priv ~ready ~dispatch_latency:Cost.dispatch_latency
                durations
            in
            run_stages ectx ~cfg ~priv ~proc_table ~ready:finish ~index:(index + 1)
              (seg :: acc) rest
        | exception ((Function_failed _ | Function_hung _) as e) ->
            Par.leave_shard sh;
            Hotspot.leave hs;
            let hang = match e with Function_hung _ -> true | _ -> false in
            Failed { index; hang; shard = sh; base = ready } :: acc
        | exception e ->
            Par.leave_shard sh;
            Hotspot.leave hs;
            raise e)

  (* Attempt [a] of a request and the attempts after it while they
     fail, consing their segments onto [acc].  Each attempt runs in a
     fresh WFD on its own process table, clock and private timeline. *)
  let rec run_attempts ~cfg ~scfg ~endpoint ~(p : plan) ~retries ~released a acc =
    let proc_table = Hostos.Process.acquire_table () in
    let clock = Clock.create () in
    let boot_sh = Par.acquire_shard cfg in
    let plan = if a = 1 then p.pl_first else p.pl_retry in
    let hs = Hotspot.enter "boot" in
    Par.enter_shard boot_sh;
    let wfd =
      match
        boot_wfd ~scfg ~endpoint ~reg:p.pl_reg ~fault_child:p.pl_fault ~proc_table ~clock
          ~first:(a = 1) plan
      with
      | wfd ->
          Par.leave_shard boot_sh;
          Hotspot.leave hs;
          wfd
      | exception e ->
          Par.leave_shard boot_sh;
          Hotspot.leave hs;
          raise e
    in
    let elapsed = Clock.now clock in
    let boot =
      Boot
        {
          warm = (match plan with Warm _ -> true | Cold -> false);
          wfd_id = wfd.Wfd.id;
          elapsed;
          shard = boot_sh;
          rss = Hostos.Process.total_rss proc_table;
        }
    in
    let rt =
      match plan with
      | Warm tpl -> { engine_started = tpl.tpl_engine; python_booted = tpl.tpl_python }
      | Cold -> { engine_started = false; python_booted = false }
    in
    let ectx =
      make_exec_ctx ~config:scfg ~bindings:p.pl_reg.reg_bindings ~wfd ~rt ~retries
        ~cold_start_mark:(ref None)
    in
    let acc =
      (* The private pool is a domain-local scratch arena reset per
         attempt, never allocated per attempt. *)
      match
        run_stages ectx ~cfg
          ~priv:(Hostos.Sched.scratch ~cores:scfg.cores)
          ~proc_table ~ready:elapsed ~index:0 (boot :: acc)
          (Workflow.stages p.pl_reg.reg_workflow)
      with
      | acc -> acc
      | exception e ->
          Wfd.destroy wfd;
          raise e
    in
    let failed = match acc with Failed _ :: _ -> true | _ -> false in
    (* A clean warm finish returns its WFD to the template's pool
       (host-only reset on this worker domain); failures and cold boots
       tear down. *)
    (match plan with
    | Warm tpl when not failed -> released := Wfd.release tpl.tpl_pool wfd
    | Warm _ | Cold -> Wfd.destroy wfd);
    (* The segments never reference the process table (RSS is sampled
       into them), and a pooled shell holds no process entry — so the
       per-attempt table recirculates on this worker domain. *)
    Hostos.Process.release_table proc_table;
    if failed && a < max_attempts_of scfg then
      run_attempts ~cfg ~scfg ~endpoint ~p ~retries ~released (a + 1) acc
    else acc

  (* Store a newest-first segment list into [arr] from index [i] down,
     so that [arr] runs in execution order. *)
  let rec fill_segments arr i = function
    | [] -> ()
    | sg :: rest ->
        arr.(i) <- sg;
        fill_segments arr (i - 1) rest

  (* Compute one request's trajectory.  Runs on any domain: every
     observable write goes to a segment shard, WFD ids come from the
     request's reserved namespace, and faults and the disk image are
     request-private. *)
  let run_trajectory t ~cfg ~endpoint (p : plan) =
    let hs = Hotspot.enter "serve.trajectory" in
    let scfg =
      match p.pl_fault with
      | Some _ as f -> { t.scfg with fault = f }
      | None -> t.scfg
    in
    let retries = ref 0 in
    let released = ref false in
    match run_attempts ~cfg ~scfg ~endpoint ~p ~retries ~released 1 [] with
    | [] -> assert false (* every attempt conses its [Boot] *)
    | last :: _ as acc ->
        let n = List.length acc in
        let segments = Array.make n last in
        fill_segments segments (n - 1) acc;
        Hotspot.leave hs;
        { tj_segments = segments; tj_retries = !retries; tj_released = !released }
    | exception e ->
        Hotspot.leave hs;
        raise e

  (* Merge-phase state of one request; the event queue holds it for
     its arrival and each step after. *)
  type mstate = {
    ms_req : request;
    ms_sampled : bool;  (* spans/trace kept for this request *)
    ms_traj : traj;
    mutable ms_next : int;  (* next segment; -1 until the request arrives *)
    mutable ms_span : Span.id;
    mutable ms_attempt_no : int;  (* attempts begun; 0 until the first boot *)
    mutable ms_warm : bool;
    mutable ms_wfd_id : int;
    mutable ms_rss : int;
    mutable ms_attempt_began : Units.time;
        (* start instant of the executing attempt, for the
           per-execution [visor.e2e_ns] observation *)
  }

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
  let plan_request t ~max_attempts ~index (r : request) =
    let reg = find_registration t r.endpoint in
    match admit_images ~cache:t.adm reg.reg_bindings with
    | (_ : Units.time) ->
        let first, retry = plan_boots t r.endpoint reg in
        let base = Wfd.reserve_ids max_attempts in
        let fault_child =
          match t.scfg.fault with Some plan -> Some (Fault.child plan ~index) | None -> None
        in
        Some
          {
            pl_reg = reg;
            pl_first = first;
            pl_retry = retry;
            pl_base = base;
            pl_fault = fault_child;
          }
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
    (* The summary counts this serve only: admission against the
       cache's counts now (the cache may be shared), and the machine
       peak from the templates already built. *)
    let adm_hits0 = t.adm.cache_hits and adm_scans0 = t.adm.cache_scans in
    t.machine_peak <- t.pool_bytes;
    let base_cfg = Par.shard_config () in
    let q : mstate Eventq.t = Eventq.create () in
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
        let hs = Hotspot.enter "serve.prologue" in
        let planned =
          List.map
            (fun (i, r) ->
              let sampled = t.obs_every <= 1 || i mod t.obs_every = t.obs_phase in
              (i, r, sampled, plan_request t ~max_attempts ~index:i r))
            batch
        in
        Hotspot.leave hs;
        planned
      in
      (* Trajectories: host-parallel, shard-isolated.  An unsampled
         request's shards are created with spans and trace off, so it
         allocates no observability state at all. *)
      let tasks =
        Array.of_list
          (List.map
             (fun (_, (r : request), sampled, plan) ->
               match plan with
               | None -> fun () -> rejected
               | Some p ->
                   let cfg =
                     {
                       Par.cfg_span_on = base_cfg.Par.cfg_span_on && sampled;
                       cfg_trace_on = base_cfg.Par.cfg_trace_on && sampled;
                     }
                   in
                   fun () ->
                     Wfd.with_id_namespace ~base:p.pl_base (fun () ->
                         run_trajectory t ~cfg ~endpoint:r.endpoint p))
             planned)
      in
      let trajs = Par.run tasks in
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
        (fun k (_, r, sampled, _) ->
          let ms =
            {
              ms_req = r;
              ms_sampled = sampled;
              ms_traj = trajs.(k);
              ms_next = -1;
              ms_span = Span.none;
              ms_attempt_no = 0;
              ms_warm = false;
              ms_wfd_id = 0;
              ms_rss = 0;
              ms_attempt_began = Units.zero;
            }
          in
          Eventq.push q ~at:r.arrival ~pri:pri_arrival ms)
        planned
    in
    (* Plan while the earliest unplanned arrival is due no later than
       the next queued event (arrivals beat same-instant completions,
       so <= , not <). *)
    let rec pump () =
      match !pending with
      | None -> ()
      | Some (r : request) ->
          if Eventq.is_empty q || not (Units.( < ) (Eventq.next_at q) r.arrival) then begin
            plan_window ();
            pump ()
          end
    in
    let acc = ref init in
    let lat = if t.sketch_lat then Stats.sketched () else Stats.create () in
    let inflight_now = ref 0 in
    let max_inflight = ref 0 in
    let completed = ref 0 in
    let failed = ref 0 in
    let warm_starts = ref 0 in
    let cold_starts = ref 0 in
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
    (* The one answer: [ms] ends at [now].  A request rejected at
       admission began no attempt, so it samples no request latency and
       holds no resident set. *)
    let finish ms ~now ~ok =
      decr inflight_now;
      let executed = ms.ms_attempt_no > 0 in
      let latency = Units.sub now ms.ms_req.arrival in
      Span.set_attr (Span.current ()) ms.ms_span "ok" (string_of_bool ok);
      Span.end_span (Span.current ()) ms.ms_span ~at:now;
      if executed then Metrics.observe_time req_histo latency;
      if ok then begin
        incr completed;
        Stats.add_time lat latency
      end
      else incr failed;
      tel_finish ~now ~endpoint:ms.ms_req.endpoint ~latency ~ok
        ~released:(ok && ms.ms_traj.tj_released);
      last_finish := Units.max !last_finish now;
      acc :=
        f !acc
          {
            r_endpoint = ms.ms_req.endpoint;
            r_arrival = ms.ms_req.arrival;
            r_finish = now;
            r_latency = latency;
            r_warm = ms.ms_warm;
            r_ok = ok;
            r_attempts = ms.ms_attempt_no;
            r_retries = ms.ms_traj.tj_retries;
          };
      if executed then set_rss ms 0
    in
    let stage_span ms ~now index =
      if ms.ms_sampled then
        Span.begin_span (Span.current ()) ~parent:ms.ms_span ~at:now ~category:"stage"
          ~label:(Printf.sprintf "stage %d" index)
          ()
      else Span.none
    in
    (* Replay the request's next segment at [now]. *)
    let rec step ms ~now =
      let segments = ms.ms_traj.tj_segments in
      let i = ms.ms_next in
      if i >= Array.length segments then begin
        (* One workflow execution (attempt) ended: boot through last
           stage — the serving-side analogue of the run path's
           end-to-end observation. *)
        Metrics.observe_time e2e_histo (Units.sub now ms.ms_attempt_began);
        finish ms ~now ~ok:true
      end
      else begin
        ms.ms_next <- i + 1;
        match segments.(i) with
        | Boot { warm; wfd_id; elapsed; shard; rss } ->
            (* The attempt's "boot"/"retry" span attaches under the
               request; its first stage is ready at boot completion. *)
            ms.ms_attempt_no <- ms.ms_attempt_no + 1;
            ms.ms_warm <- warm;
            ms.ms_wfd_id <- wfd_id;
            ms.ms_attempt_began <- now;
            if warm then incr warm_starts else incr cold_starts;
            (match t.tel with
            | None -> ()
            | Some tel ->
                Timeseries.add tel.tel_ts
                  (if warm then tel.tel_warm else tel.tel_cold)
                  ~at:now 1.0);
            Par.merge_shard ~attach:ms.ms_span ~offset:now shard;
            Par.release_shard shard;
            set_rss ms rss;
            Eventq.push q ~at:(Units.add now elapsed) ~pri:pri_advance ms
        | Stage { index; durations; shard; base; rss } ->
            let span = stage_span ms ~now index in
            Par.merge_shard ~attach:span ~offset:(Units.sub now base) shard;
            Par.release_shard shard;
            let makespan =
              Hostos.Sched.makespan_on t.cpu ~ready:now
                ~dispatch_latency:Cost.dispatch_latency durations
            in
            Metrics.observe_time stage_histo (Units.sub makespan now);
            let tr = Trace.current () in
            if ms.ms_sampled && Trace.enabled tr then
              Trace.recordf tr ~at:makespan ~category:"visor" ~label:"stage-done"
                "wfd%d stage %d (%d instances)" ms.ms_wfd_id index
                (List.length durations);
            Span.end_span (Span.current ()) span ~at:makespan;
            set_rss ms rss;
            Eventq.push q ~at:makespan ~pri:pri_advance ms
        | Failed { index; hang; shard; base } ->
            Metrics.observe_time e2e_histo (Units.sub now ms.ms_attempt_began);
            (* The failed stage's span stays zero-length; its partial
               function spans still attach under it. *)
            let span = stage_span ms ~now index in
            Par.merge_shard ~attach:span ~offset:(Units.sub now base) shard;
            Par.release_shard shard;
            Span.end_span (Span.current ()) span ~at:now;
            if i + 1 < Array.length segments then begin
              (* The next segment boots the retry, at this instant. *)
              let tr = Trace.current () in
              if ms.ms_sampled && Trace.enabled tr then
                Trace.recordf tr ~at:now ~category:"server" ~label:"workflow-retry"
                  "%s attempt %d (%s)" ms.ms_req.endpoint (ms.ms_attempt_no + 1)
                  (if hang then "hang" else "failure");
              step ms ~now
            end
            else finish ms ~now ~ok:false
      end
    in
    let arrive ms ~now =
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
      ms.ms_next <- 0;
      (* Rejected at admission: fails immediately, off the execution
         path. *)
      if ms.ms_traj == rejected then finish ms ~now ~ok:false else step ms ~now
    in
    pump ();
    let rec drive () =
      if not (Eventq.is_empty q) then begin
        let now = Eventq.next_at q in
        let ms = Eventq.pop q in
        let hs = Hotspot.enter "serve.merge" in
        if ms.ms_next < 0 then arrive ms ~now else step ms ~now;
        Hotspot.leave hs;
        pump ();
        drive ()
      end
    in
    drive ();
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
        sm_warm_starts = !warm_starts;
        sm_cold_starts = !cold_starts;
        sm_adm_hits = t.adm.cache_hits - adm_hits0;
        sm_adm_scans = t.adm.cache_scans - adm_scans0;
        sm_evictions = 0;
        sm_templates_live =
          Hashtbl.fold
            (fun _ reg n -> if Option.is_some reg.reg_template then n + 1 else n)
            t.table 0;
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
    Hashtbl.iter
      (fun _ reg ->
        Option.iter (fun tpl -> Wfd.drain tpl.tpl_pool) reg.reg_template;
        reg.reg_template <- None)
      t.table;
    t.pool_bytes <- 0
end
