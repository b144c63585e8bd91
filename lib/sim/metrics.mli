(** Process-global metrics.

    Unifies the three instrument kinds the simulator needs under one
    snapshot:

    - {e counters} — the process-wide {!Stats.Counter} cells (monotonic
      event counts bumped on hot paths);
    - {e histograms} — value distributions with deterministic
      log2-bucketed bins plus exact percentiles from the retained
      samples (powered by {!Stats}, so repeated percentile queries cost
      one sort per batch of adds).  Its sums and thinned percentiles
      depend on the order of its samples, so histograms live in a
      {!registry}, which a [Par] shard swaps in — the only metrics a
      shard holds;
    - {e gauges} — high-watermarks, one process-wide cell each.

    Everything is keyed by name and deterministic: two identically
    seeded runs produce identical snapshots, which is what lets CI diff
    exported metrics byte-for-byte.  JSON rendering lives in the core
    library ([Obs]) — this module only exposes the plain snapshot. *)

type histogram
type gauge

type registry
(** One set of histogram cells plus its reservoir thinning setting.
    Histogram handles are names, resolved in the {e current} registry
    (domain-local; the process default on the main domain) at every
    observation — that indirection lets [Par.with_shard] route a
    parallel task's observations into a private shard with no locks,
    and {!merge_into} fold them back at a deterministic join. *)

val create_registry : unit -> registry
val current : unit -> registry
val set_current : registry -> unit

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
    [Invalid_argument] when [k < 1]. *)

val merge_into : registry -> unit
(** Fold a shard registry into the current one.  Each non-empty shard
    histogram re-observes its samples, in the shard's insertion order,
    into the destination cell of the same name, so every merged series
    depends only on the order of [merge_into] calls.  The destination's
    reservoir thinning (see {!set_raw_sample_every}) applies to the
    merged samples.  Raises [Invalid_argument], before merging
    anything, when the shard thins its reservoir (its dropped samples
    could not be replayed): shards must observe at the default
    [k = 1]. *)

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
(** Registered histogram for [name], created empty on first use.
    Repeated calls with the same name share one instrument. *)

val observe : histogram -> float -> unit
(** Negative values are clamped to 0 for bucketing (the exact sample
    is retained as given). *)

val observe_time : histogram -> Units.time -> unit
(** Records the duration in nanoseconds. *)

val histogram_count : histogram -> int
(** Exact observation count (never thinned). *)

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
    registry's histograms.  Each call recomputes every histogram's
    percentiles. *)

val reset : unit -> unit
(** Zeroes every gauge, every {!Stats.Counter} and the current
    registry's histograms (the instruments stay registered).  Call at
    run boundaries so exported snapshots are per-run. *)

val reset_registry : registry -> unit
(** Scrub [registry] in place for reuse as a fresh per-task shard:
    histogram cells are cleared but kept (their bucket arrays and
    reservoirs are reused) and the sampling configuration returns to
    the {!create_registry} default.  Merging a scrubbed registry is
    byte-identical to merging a fresh one. *)
