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
     from a stream shared across tasks. *)

let domain_count = Atomic.make 1

let set_domains n = Atomic.set domain_count (if n < 1 then 1 else n)
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

(* --- The pool ------------------------------------------------------ *)

(* Run [tasks] and return their results by submission index.  Work is
   claimed one submission per fetch from a shared atomic cursor; the
   submitting domain participates, so [domains () = 1] costs no spawn.
   The first failing task *by submission index* re-raises after every
   domain has joined — completion order never leaks, even through
   errors. *)
let run (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let d = min (domains ()) n in
  if d <= 1 then Array.map (fun f -> f ()) tasks
  else begin
    let results : 'a option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match tasks.(i) () with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e);
        worker ()
      end
    in
    let spawned = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match errors.(i) with Some e -> first_error := Some e | None -> ()
    done;
    (match !first_error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
