(* Host-parallel execution of independent tasks on OCaml 5 domains.

   The contract that keeps virtual time deterministic:

   - Tasks are submitted as an array; results come back indexed by
     submission position, never by completion order.
   - A task must route every order-sensitive collector write (spans,
     trace events, histogram observations) through a [shard] installed
     with [with_shard].  Shards are domain-local swaps, so the hot path
     takes no locks.  A shard holds no histogram cells: it logs each
     observation as a (histogram id, value) pair, and its span store
     and trace ring exist only once something is recorded in them.
     Counters and gauges are sums and high-watermarks, which no order
     can change: they are process-wide cells that any domain updates
     in place, inside a shard or not.
   - Shards are merged with [merge_shard] at points chosen by the
     (sequential, virtual-time) merge loop — keyed by submission
     index, so the merged timeline is bit-identical whether the tasks
     ran on 1 domain or N.
   - Per-task randomness/faults must be split from the seed by task
     index ([Fault.child], [Rng.split]) before submission, never drawn
     from a stream shared across tasks.

   Worker lifetime: at width d > 1 the tasks run on d - 1 worker
   domains that live from the first parallel [run] at that width until
   [set_domains] changes the width, which joins them; between calls
   they park on a condition variable.  Their domain-local state (page,
   process-table and scheduler pools, Hotspot tables) therefore
   persists across calls, which is what makes a small serving window
   cheap.  The join matters as much as the reuse: a parked OCaml 5
   domain still takes part in every stop-the-world minor collection,
   so a width-1 run after a wider one would otherwise pay for every
   domain the wider run left parked. *)

let domain_count = Atomic.make 1

let domains () = Atomic.get domain_count

(* The pool width that matches the machine: the runtime's recommended
   domain count, never less than 1.  Spinning up more domains than
   cores (the old [min 4 ...] default did exactly that on a 1-core
   host) makes parallelism look like a slowdown — domains contend for
   one core and pay the merge overhead with none of the win. *)
let auto_domains () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* --- Per-task collector shards ------------------------------------- *)

(* [sh_saved_*] hold the collectors a shard displaced while it is
   installed ([enter_shard] to [leave_shard]), so installing one
   allocates nothing.  A shard is installed at most once at a time.
   [sh_metrics] is [Metrics.Log sh_log], built once. *)
type shard = {
  sh_span : Span.t;
  sh_trace : Trace.t;
  sh_log : Metrics.log;
  sh_metrics : Metrics.sink;
  mutable sh_saved_span : Span.t;
  mutable sh_saved_trace : Trace.t;
  mutable sh_saved_metrics : Metrics.sink;
}

type shard_config = { cfg_span_on : bool; cfg_trace_on : bool }

(* Capture enablement from the submitting domain's collectors so
   shards observe exactly what the sequential run would. *)
let shard_config () =
  {
    cfg_span_on = Span.enabled (Span.current ());
    cfg_trace_on = Trace.enabled (Trace.current ());
  }

let make_shard cfg =
  let sp = Span.create () in
  Span.set_enabled sp cfg.cfg_span_on;
  let tr = Trace.create () in
  Trace.set_enabled tr cfg.cfg_trace_on;
  let log = Metrics.create_log () in
  let sink = Metrics.Log log in
  {
    sh_span = sp;
    sh_trace = tr;
    sh_log = log;
    sh_metrics = sink;
    sh_saved_span = sp;
    sh_saved_trace = tr;
    sh_saved_metrics = sink;
  }

let enter_shard shard =
  shard.sh_saved_span <- Span.current ();
  shard.sh_saved_trace <- Trace.current ();
  shard.sh_saved_metrics <- Metrics.current ();
  Span.set_current shard.sh_span;
  Trace.set_current shard.sh_trace;
  Metrics.set_current shard.sh_metrics

let leave_shard shard =
  Span.set_current shard.sh_saved_span;
  Trace.set_current shard.sh_saved_trace;
  Metrics.set_current shard.sh_saved_metrics;
  (* Drop the references, so a pooled shard pins no collector. *)
  shard.sh_saved_span <- shard.sh_span;
  shard.sh_saved_trace <- shard.sh_trace;
  shard.sh_saved_metrics <- shard.sh_metrics

let with_shard shard f =
  enter_shard shard;
  match f () with
  | v ->
      leave_shard shard;
      v
  | exception e ->
      leave_shard shard;
      raise e

(* Fold a shard into the *current* collectors, shifting the shard's
   relative virtual times by [offset] and attaching its root spans
   under [attach]. *)
let merge_shard ?(attach = Span.none) ?(offset = Units.zero) shard =
  Span.import (Span.current ()) ~offset ~attach shard.sh_span;
  Trace.import (Trace.current ()) ~offset shard.sh_trace;
  Metrics.replay shard.sh_log

(* --- Shard pool ----------------------------------------------------

   Serving uses 2-3 shards per request; recycling them is the same
   reset-discipline the WFD shell pool uses: scrub every observable on
   release, so an acquired shard is indistinguishable from a fresh one
   ([merge_shard] of a scrubbed shard is byte-identical to merging a
   fresh shard — merges copy or replay contents, and a scrub empties
   the log and clears only the span and trace slots that were used).

   Release is only legal after the shard has been merged (or when its
   contents are deliberately discarded, e.g. a crashed attempt being
   replayed): the pool takes ownership.  Exception paths may simply
   drop shards — the pool is an optimisation, not a ledger.  The pool
   is an array stack, so parking a shard allocates nothing once the
   array has grown. *)

let shard_pool : shard array ref = ref [||]
let shard_pool_len = ref 0
let shard_pool_mu = Mutex.create ()
let shard_pool_cap = 4096

let scrub_shard sh =
  Span.clear sh.sh_span;
  Span.set_enabled sh.sh_span false;
  Trace.clear sh.sh_trace;
  Trace.set_enabled sh.sh_trace false;
  Metrics.clear_log sh.sh_log

let acquire_shard cfg =
  Mutex.lock shard_pool_mu;
  let n = !shard_pool_len - 1 in
  if n < 0 then begin
    Mutex.unlock shard_pool_mu;
    make_shard cfg
  end
  else begin
    let sh = !shard_pool.(n) in
    (* The vacated slot still points at [sh] until a release
       overwrites it; it is never read before then. *)
    shard_pool_len := n;
    Mutex.unlock shard_pool_mu;
    Span.set_enabled sh.sh_span cfg.cfg_span_on;
    Trace.set_enabled sh.sh_trace cfg.cfg_trace_on;
    sh
  end

let release_shard sh =
  scrub_shard sh;
  Mutex.lock shard_pool_mu;
  let n = !shard_pool_len in
  if n < shard_pool_cap then begin
    if n = Array.length !shard_pool then begin
      let grown = Array.make (Stdlib.min shard_pool_cap (Stdlib.max 64 (2 * n))) sh in
      Array.blit !shard_pool 0 grown 0 n;
      shard_pool := grown
    end;
    !shard_pool.(n) <- sh;
    shard_pool_len := n + 1
  end;
  Mutex.unlock shard_pool_mu

(* --- The pool ------------------------------------------------------

   At width d > 1, [run] hands its tasks to the d - 1 workers (see the
   header) and claims tasks itself alongside them.  A call posts a job
   (the claim loop over its tasks) and bumps [epoch]; every parked
   worker wakes, runs the job until the shared cursor passes the last
   task, and parks again.  The caller waits on [finished] until every
   task is done, not until every worker has woken: a worker that wakes
   late finds no task left.

   [busy] is held by the [run] that owns the pool and by a width
   change.  A [run] that finds it held — one issued from inside a task,
   on a worker or on the caller's domain, or from a second domain of
   the caller's — runs its tasks inline on its own domain. *)

let busy = Atomic.make false
let mu = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()

(* Guarded by [mu]: the posted job, its sequence number, and the stop
   request [set_domains] sends. *)
let job : (unit -> unit) ref = ref ignore
let epoch = ref 0
let stopping = ref false

(* Only the holder of [busy] reads or writes it. *)
let workers : unit Domain.t array ref = ref [||]

(* Park until a job newer than [seen] is posted or the pool stops. *)
let rec work seen =
  Mutex.lock mu;
  while !epoch = seen && not !stopping do
    Condition.wait wake mu
  done;
  let stop = !stopping and e = !epoch and j = !job in
  Mutex.unlock mu;
  if not stop then begin
    j ();
    work e
  end

let start_workers w =
  let e = !epoch in
  workers := Array.init w (fun _ -> Domain.spawn (fun () -> work e))

let stop_workers () =
  if Array.length !workers > 0 then begin
    Mutex.protect mu (fun () ->
        stopping := true;
        Condition.broadcast wake);
    Array.iter Domain.join !workers;
    workers := [||];
    Mutex.protect mu (fun () -> stopping := false)
  end

let set_domains n =
  let n = if n < 1 then 1 else n in
  if n <> Atomic.get domain_count then begin
    if not (Atomic.compare_and_set busy false true) then
      invalid_arg "Sim.Par.set_domains: called while a run is in flight";
    Atomic.set domain_count n;
    stop_workers ();
    Atomic.set busy false
  end

(* Run [tasks] on the pool and return their results by submission
   index.  Each fetch from the shared cursor claims one task; whoever
   finishes the last task wakes the caller. *)
let run_on_pool (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if Array.length !workers = 0 then start_workers (domains () - 1);
  let results : 'a option array = Array.make n None in
  let errors : exn option array = Array.make n None in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match tasks.(i) () with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      if Atomic.fetch_and_add completed 1 = n - 1 then
        Mutex.protect mu (fun () -> Condition.signal finished);
      claim ()
    end
  in
  Mutex.protect mu (fun () ->
      job := claim;
      incr epoch;
      Condition.broadcast wake);
  claim ();
  Mutex.protect mu (fun () ->
      while Atomic.get completed < n do
        Condition.wait finished mu
      done;
      (* Drop the job, so the pool pins none of its tasks or results. *)
      job := ignore);
  (* The first failing task by submission index re-raises, after every
     task has finished: completion order never leaks, even through
     errors. *)
  let first_error = ref None in
  for i = n - 1 downto 0 do
    match errors.(i) with Some e -> first_error := Some e | None -> ()
  done;
  (match !first_error with Some e -> raise e | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let run (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if min (domains ()) n <= 1 || not (Atomic.compare_and_set busy false true) then
    Array.map (fun f -> f ()) tasks
  else
    match run_on_pool tasks with
    | results ->
        Atomic.set busy false;
        results
    | exception e ->
        Atomic.set busy false;
        raise e
