(** Process-global metrics.

    Unifies the three instrument kinds the simulator needs under one
    snapshot:

    - {e counters} — the process-wide {!Stats.Counter} cells (monotonic
      event counts bumped on hot paths);
    - {e histograms} — value distributions with deterministic
      log2-bucketed bins plus exact percentiles from the retained
      samples (powered by {!Stats}, so repeated percentile queries cost
      one sort per batch of adds).  Their sums and thinned percentiles
      depend on the order of their samples, so histograms live in a
      {!registry}, and a [Par] shard records its observations in a
      {!log} that {!replay} feeds back in order — the only metrics a
      shard holds;
    - {e gauges} — high-watermarks, one process-wide cell each.

    Every instrument is named, and everything is deterministic: two
    identically seeded runs produce identical snapshots, which is what
    lets CI diff exported metrics byte-for-byte.  JSON rendering lives in the core
    library ([Obs]) — this module only exposes the plain snapshot. *)

type histogram
(** A histogram handle: the dense id its name was interned under. *)

type gauge

type registry
(** One set of histogram cells, an array indexed by histogram id, plus
    its reservoir thinning setting.  Each registry registers its own
    series: {!snapshot} lists the ones registered in it. *)

type log
(** A [Par] shard's histogram observations, in order, as (id, value)
    pairs.  It holds no cells and cannot be thinned. *)

type sink = Registry of registry | Log of log
(** Where the current domain's observations go.  It is domain-local:
    the process default registry on the main domain, a private one on
    a worker domain, a shard's log while [Par.enter_shard] has it
    installed — which routes a parallel task's observations into the
    shard with no locks, for {!replay} to feed back at a deterministic
    join. *)

val create_registry : unit -> registry
val create_log : unit -> log

val clear_log : log -> unit
(** Empty [log] in place, keeping its arrays for reuse. *)

val current : unit -> sink
val set_current : sink -> unit

val set_raw_sample_every : ?seed:int -> int -> unit
(** [set_raw_sample_every ~seed k] thins the {e raw-sample reservoir}
    of the current registry to 1-in-[k] (deterministic stride, phase
    [seed mod k]).  Bucket counts, counts, sums and min/max stay exact;
    only the retained samples backing percentile queries are thinned,
    so memory is O(count / k).  While [k > 1] every observation also
    feeds a {!Sketch.Tdigest}, and snapshot percentiles answer from
    that full-population sketch rather than the thinned reservoir.
    [k = 1] (the default) retains every sample, allocates no sketch,
    and is bit-identical to the unsampled registry.  Raises
    [Invalid_argument] when [k < 1], or when the current sink is a
    log. *)

val replay : log -> unit
(** Feed a shard's log into the current sink, in observation order:
    into a registry, each entry is observed in the cell of its id (so
    every merged series depends only on the order of [replay] calls,
    and the registry's reservoir thinning applies); into a log, the
    entries are appended.  The log is unchanged. *)

val labels : string -> (string * string) list -> string
(** [labels name kvs] encodes a dimensional series name in the
    Prometheus style: [labels "serve.requests" [("endpoint", "thumb")]]
    is ["serve.requests{endpoint=\"thumb\"}"].  Keys are sorted and
    values escaped, so one label set always encodes to one name.
    Every instrument here (and {!Stats.Counter}, {!Timeseries}) is
    keyed by name, so the result is directly usable as a per-label
    instrument. *)

val base_name : string -> string
(** The name with any [{...}] label block stripped — what exporters
    group dimensional series under. *)

val histogram : string -> histogram
(** The histogram named [name]: its interned id, registered (empty) in
    the current registry on first use.  Repeated calls with the same
    name, from any domain, return the same id.  Call it once per
    series, not per observation: interning takes a lock and hashes the
    name. *)

val observe : histogram -> float -> unit
(** Negative values are clamped to 0 for bucketing (the exact sample
    is retained as given). *)

val observe_time : histogram -> Units.time -> unit
(** Records the duration in nanoseconds. *)

val histogram_count : histogram -> int
(** Exact observation count in the current sink (never thinned). *)

val bucket_index : float -> int
(** Bucket for a value: 0 holds values < 1 (negatives included);
    bucket [i >= 1] holds values in [[2^(i-1), 2^i)]; values from
    [2^62] up, infinity and nan go to 63.  Read off the IEEE exponent,
    so it is bit-deterministic across platforms and allocates
    nothing. *)

val bucket_bound : int -> float
(** Upper bound (exclusive) of a bucket: [2^i]. *)

val gauge : string -> gauge
(** The process-wide cell for [name], registered at 0 on first use.
    Every domain, inside a [Par] shard or not, updates the same cell;
    shards hold no gauges. *)

val max_gauge : gauge -> float -> unit
(** High-watermark update: keeps the maximum of the current and given
    values, raised by compare-and-set so concurrent updates from
    several domains never lose the largest. *)

val gauge_value : gauge -> float

(** {1 Snapshots} *)

type histo_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** 0 when empty. *)
  hs_max : float;
  hs_p50 : float;
      (** Percentiles are exact, from the reservoir, while it holds
          every observation; once thinning drops one they come from the
          full-population t-digest sketch. *)
  hs_p90 : float;
  hs_p99 : float;
  hs_buckets : (int * int) list;
      (** Non-empty buckets as [(index, count)], ascending index. *)
}

type snapshot = {
  snap_counters : (string * int) list;  (** Sorted by name. *)
  snap_gauges : (string * float) list;  (** Sorted by name. *)
  snap_histograms : histo_snapshot list;  (** Sorted by name. *)
}

val snapshot : unit -> snapshot
(** Snapshot of every {!Stats.Counter}, every gauge and the current
    registry's histograms, or, under a log, the histograms the log
    replays to.  Each call recomputes every histogram's percentiles. *)

val reset : unit -> unit
(** Zeroes every gauge, every {!Stats.Counter} and the current
    registry's histograms (the instruments stay registered), or empties
    the current log.  Call at run boundaries so exported snapshots are
    per-run. *)
