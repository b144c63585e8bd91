(** as-visor: the global runtime layer (§3.3).

    Owns workflow execution end to end: the watchdog receives the
    invocation event, the orchestrator instantiates a WFD, spawns one
    thread per function instance stage by stage (threads are cloned
    Linux threads scheduled on the host's cores), and destroys the WFD
    when the workflow completes.  Before anything runs, function images
    go through blacklist admission (§6).

    {!Server} layers multi-tenant serving on top: a warm pool of
    template WFDs cloned per request, a content-hash admission cache,
    and concurrent workflow execution interleaved over shared cores in
    virtual time. *)

type kernel = Asstd.ctx -> instance:int -> total:int -> unit
(** A user function body: receives its as-std context plus its parallel
    instance coordinates. *)

type binding = { kernel : kernel; image : Isa.Image.t option }

val bind : ?image:Isa.Image.t -> kernel -> binding

type retry_policy =
  | No_retry
  | Retry_function of int
      (** Restart only the failed function, up to n attempts total
          (§3.1: possible when as-libos is unaffected and the
          intermediate data is intact — function heaps are recovered
          per heap unit). *)
  | Retry_workflow of int
      (** Restart the whole workflow in a fresh WFD, up to n attempts
          total (idempotent functions).  Covers terminal function
          failures {e and} undetected hangs ({!Function_hung}); the
          function-restart counter is carried across attempts, so
          [report.retries] counts every recovery action performed. *)

type backoff =
  | No_backoff
  | Exponential of { base : Sim.Units.time; factor : float; limit : Sim.Units.time }
      (** Attempt [k] (k >= 2) waits [min limit (base * factor^(k-2))]
          of virtual time before restarting. *)

val backoff_delay : backoff -> attempt:int -> Sim.Units.time
(** The wait charged before the given attempt number (zero for the
    first attempt) — exposed so tests can assert the exact schedule. *)

(** {1 Admission cache}

    Blacklist scanning is pure over image content, so a serving layer
    caches verdicts by content hash: a re-submitted image skips the
    per-KB scan and replays the recorded verdict at
    {!Cost.admission_cache_hit}. *)

type admission_cache

val admission_cache : unit -> admission_cache
val admission_hits : admission_cache -> int
(** Scans skipped thanks to a cached verdict. *)

val admission_scans : admission_cache -> int
(** Full scans performed (cache misses). *)

type config = {
  cores : int;  (** Host CPUs available to this WFD. *)
  features : Wfd.features;
  vfs : Fsim.Vfs.t option;  (** Pre-staged disk image (inputs). *)
  wasm_runtime : Wasm.Runtime.profile option;
      (** Runtime for C/Python functions; default Wasmtime. *)
  dispatch_latency : Sim.Units.time;  (** Orchestrator per-thread dispatch. *)
  retry : retry_policy;
  cpu_quota : float option;
      (** §9 resource allocation: cgroup CPU bandwidth per function
          thread (0 < q <= 1); [None] = unlimited. *)
  fault : Sim.Fault.t option;
      (** Deterministic fault plan armed across the WFD's substrate
          (disk, buffer heap, loader, network, function threads). *)
  timeout : Sim.Units.time option;
      (** Per-function virtual-time watchdog: an attempt running (or
          hanging) past this budget is killed and counts as a failed
          attempt under the retry policy. *)
  backoff : backoff;  (** Wait between retry attempts. *)
  admission : admission_cache option;
      (** Shared verdict cache; [None] scans every image every run. *)
  code_cache : Wasm.Compile_cache.t option;
      (** Shared content-hash compile cache for WASM modules loaded by
          function code ({!Asstd.load_wasm}).  Saves host-side
          recompiles only — virtual compile time is charged on every
          load, so results are bit-identical with or without it. *)
}

val default_config : config

type stage_report = {
  stage_index : int;
  instance_durations : Sim.Units.time list;
  stage_makespan : Sim.Units.time;
  fan_in_waits : Sim.Units.time list;
}

type report = {
  e2e : Sim.Units.time;  (** Trigger to workflow completion. *)
  cold_start : Sim.Units.time;
      (** Trigger to first user instruction (the Fig. 10 metric). *)
  admission : Sim.Units.time;
      (** Image scanning/rewriting time (off the critical path). *)
  stage_reports : stage_report list;
  phase_totals : (string * Sim.Units.time) list;
      (** Summed per-phase time across all function threads (Fig. 15). *)
  entry_misses : int;
  entry_hits : int;
  trampoline_crossings : int;
  peak_rss : int;
  stdout : string;
  loaded_modules : string list;
  retries : int;  (** Function or workflow restarts performed. *)
}

exception Admission_failed of string
(** An image contained non-rewritable blacklisted instructions. *)

exception Function_failed of { fn : string; attempts : int; error : exn }
(** A user function kept failing after the configured retries.  The
    failure never escapes the WFD: MPK fault isolation means other
    WFDs (and the visor itself) are unaffected. *)

exception Function_hung of { fn : string }
(** An injected hang wedged a function thread and no [config.timeout]
    watchdog was armed: the hang is undetectable at function
    granularity, so the attempt is abandoned.  [Retry_workflow]
    restarts the whole workflow in a fresh WFD; otherwise the exception
    escapes — configure a timeout for function-level recovery. *)

exception Timed_out of { fn : string; after : Sim.Units.time }
(** The [error] payload inside {!Function_failed} when an attempt was
    killed by the per-function watchdog timeout. *)

val run :
  ?config:config ->
  workflow:Workflow.t ->
  bindings:(string * binding) list ->
  unit ->
  report
(** Execute the workflow once in a fresh WFD.  The WFD is destroyed on
    every exit path, including failures.  Raises [Invalid_argument] if
    a node has no binding, {!Admission_failed} on a rejected image. *)

val cold_start_only : ?config:config -> unit -> Sim.Units.time
(** The no-ops cold-start measurement: trigger to first user
    instruction of an empty function. *)

(** {1 Multi-tenant serving}

    Long-lived serving on top of the per-run orchestrator: endpoints
    register workflows once; requests then execute concurrently over a
    shared core pool in virtual time.  First request to an endpoint
    boots cold and seeds a warm {e template} WFD (entry table built,
    declared modules preloaded, WASM engine / CPython booted);
    subsequent requests CoW-clone the template — the Fig. 10 cold-boot
    path replaced by {!Cost.wfd_clone} + per-module attach + runtime
    resume.  Templates are LRU-evicted under a pool memory cap measured
    from proc-table RSS. *)

module Server : sig
  type request = { endpoint : string; arrival : Sim.Units.time }

  type response = {
    r_endpoint : string;
    r_arrival : Sim.Units.time;
    r_finish : Sim.Units.time;
    r_latency : Sim.Units.time;
    r_warm : bool;  (** Booted by cloning a pooled template. *)
    r_ok : bool;
    r_attempts : int;  (** Workflow-level attempts consumed. *)
    r_retries : int;  (** Function restarts across all attempts. *)
  }

  (** The aggregates of one serving run, returned next to the responses
      by {!serve_fold} and {!serve}. *)
  type summary = {
    sm_completed : int;
    sm_failed : int;
    sm_duration : Sim.Units.time;  (** First arrival to last finish. *)
    sm_throughput_rps : float;
    sm_mean_latency : Sim.Units.time;
    sm_p50_latency : Sim.Units.time;
    sm_p99_latency : Sim.Units.time;
    sm_max_inflight : int;  (** Peak concurrently-executing workflows. *)
    sm_warm_starts : int;
    sm_cold_starts : int;
    sm_adm_hits : int;
    sm_adm_scans : int;
    sm_evictions : int;
    sm_templates_live : int;
    sm_machine_peak_rss : int;
    sm_latency_sketched : bool;
        (** Latency percentiles above came from a t-digest (see
            [sketch_latency] on {!create}) rather than retained
            samples. *)
  }

  type t

  val create :
    ?config:config ->
    ?pool_mem_cap:int ->
    ?warm:bool ->
    ?sample_every:int ->
    ?sample_seed:int ->
    ?sketch_latency:bool ->
    unit ->
    t
  (** A server over [config.cores] shared cores.  [pool_mem_cap]
      (default 512 MiB) bounds the template pool's resident memory;
      [warm:false] disables the pool entirely (every request boots
      cold — the baseline the bench compares against).  The server
      uses [config.admission] when provided, else its own cache.

      [sample_every] (default 1) samples per-request observability:
      only every k-th request — by arrival index, starting at phase
      [sample_seed mod k] — carries spans and trace events, so a
      10^5-request run keeps O(n/k) observability state.  Metrics and
      counters stay exact for {e every} request.  [sample_every:1] is
      bit-identical to always-on.  Raises [Invalid_argument] when
      [sample_every < 1].

      [sketch_latency] (default false) replaces the serve loop's
      retained latency samples with {!Sim.Stats.sketched}: summary
      p50/p99 become t-digest estimates and latency memory is O(1) in
      the request count — the setting for 10^6-request and soak runs.
      The digest receives the latency of every ok response, in
      completion order.  The default retains every latency and reports
      exact percentiles.

      Each template keeps a {!Wfd.pool}: a clean warm request's WFD is
      reset to the template image and reused by a later request
      instead of being torn down and re-cloned.  Pooling is
      host-only: every virtual observable is bit-identical to
      clone-then-destroy, at any domain count.  A request with its own
      fault plan always binds a new WFD and destroys it.  Shells
      recirculate within a scheduling window, so a pool holds at most
      one shell per domain. *)

  val register :
    t ->
    endpoint:string ->
    workflow:Workflow.t ->
    bindings:(string * binding) list ->
    unit ->
    unit
  (** Raises [Invalid_argument] on a duplicate endpoint or a node
      without a binding. *)

  val endpoints : t -> string list
  (** Registered endpoints, sorted. *)

  val enable_telemetry :
    t ->
    ?window:Sim.Units.time ->
    ?retention:int ->
    ?slos:Sim.Slo.spec list ->
    unit ->
    unit
  (** Opt into windowed telemetry (off by default, so the serving hot
      path pays nothing).  Serving then feeds a {!Sim.Timeseries}
      ([window] wide, default 1 virtual second, keeping [retention]
      windows) with request/error/warm/cold/recycle-release counters,
      a per-window inflight high-watermark, latency distributions, and
      per-endpoint labelled variants — and evaluates one
      {!Sim.Slo} monitor per spec in [slos].

      Every observation is recorded from the sequential merge loop on
      the merged virtual timeline, so timeseries exports, SLO alert
      instants and burn rates are byte-identical across host domain
      counts.  The recycle-release series counts WFDs returned to
      their template's pool ({!Wfd.release}), a plan-deterministic
      event. *)

  val telemetry : t -> Sim.Timeseries.t option
  (** The live timeseries once {!enable_telemetry} was called. *)

  val slo_monitors : t -> Sim.Slo.t list
  (** Monitors in [slos] order; live during a serve, final after. *)

  val slo_alerts : t -> Sim.Slo.alert list
  (** All monitors' pages and clears on one timeline, ordered by
      instant (ties by SLO name). *)

  val prewarm : t -> endpoint:string -> Sim.Units.time option
  (** Build (or touch) the endpoint's template off the request path.
      Returns the template build time, or [None] if the pool is
      disabled or the template exceeds the whole memory cap.  Raises
      [Not_found] for an unknown endpoint. *)

  val serve_fold :
    t ->
    ?window:int ->
    (unit -> request option) ->
    init:'a ->
    f:('a -> response -> 'a) ->
    'a * summary
  (** Run an open-loop trace to completion.  Requests are pulled lazily
      from the generator ([None] ends the run); arrivals fire at their
      timestamps regardless of completions, and stages of distinct
      in-flight workflows interleave over the shared cores via the
      event queue.  A request for an unregistered endpoint raises
      [Not_found]; an image rejected at admission fails that request
      (not the server).  Workflow-level retry ([Retry_workflow])
      re-boots failed requests in fresh WFDs up to the attempt budget.

      Requests are pipelined through planning, parallel trajectory
      execution and the merge loop in windows of [window] requests
      (default 2048).  Each response is handed to [f] at its completion
      instant (completion order on the merged virtual timeline) and
      never stored, so live host memory is O(window + in-flight) with
      {e no} term linear in the request count — combined with
      [sketch_latency] on {!create}, a 10^6-request run is
      constant-memory.  [f] runs on the merge (main) domain,
      interleaved with event processing; it must not call back into
      the server.  The virtual timeline, and hence the response
      sequence, is bit-identical at every window size and domain
      count.  Arrivals must be nondecreasing; otherwise raises
      [Invalid_argument]. *)

  val serve : t -> request list -> response list * summary
  (** {!serve_fold} over the list, stably sorted by arrival first (so
      same-instant requests keep list order), collecting the responses
      in completion order. *)

  val pool_size : t -> int
  val pool_rss : t -> int
  val evictions : t -> int
  val warm_hits : t -> int
  val cold_boots : t -> int
  val admission : t -> admission_cache

  val code_cache : t -> Wasm.Compile_cache.t
  (** The server's shared compile cache (the one injected into every
      request's config): warm clones of a template recompile nothing —
      its miss count stays at the number of distinct modules. *)

  val shutdown : t -> unit
  (** Destroy all pooled templates (drops their WFDs from the live
      count). *)
end
