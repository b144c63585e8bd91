(** Process-global metrics registry.

    Unifies the three instrument kinds the simulator needs under one
    snapshotable registry:

    - {e counters} — the existing {!Stats.Counter} registry (monotonic
      event counts bumped on hot paths);
    - {e histograms} — value distributions with deterministic
      log2-bucketed bins plus exact percentiles from the retained
      samples (powered by {!Stats}, so repeated percentile queries cost
      one sort per batch of adds);
    - {e gauges} — last-value (or high-watermark) instruments.

    Everything is keyed by name and deterministic: two identically
    seeded runs produce identical snapshots, which is what lets CI diff
    exported metrics byte-for-byte.  JSON rendering lives in the core
    library ([Obs]) — this module only exposes the plain snapshot. *)

type histogram
type gauge

type registry
(** One set of histogram/gauge cells.  Handles are names, resolved in
    the {e current} registry (domain-local; the process default on the
    main domain) at every observation — that indirection lets
    [Par.with_shard] route a parallel task's observations into a
    private shard with no locks, and {!merge_into} fold them back at a
    deterministic join. *)

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

val raw_sample_every : unit -> int

val merge_into : registry -> unit
(** Fold a shard registry into the current one.  Histogram samples are
    re-observed in the shard's insertion order with series visited in
    sorted-name order, so the merged sample sequence depends only on
    the order of [merge_into] calls; gauges merge as high-watermarks.
    The destination's reservoir thinning (see {!set_raw_sample_every})
    applies to the merged samples.  Raises [Invalid_argument] when a
    shard histogram's reservoir was thinned (it cannot be replayed):
    shards must observe at the default [k = 1]. *)

val labels : string -> (string * string) list -> string
(** [labels name kvs] encodes a dimensional series name in the
    Prometheus style: [labels "serve.requests" [("endpoint", "thumb")]]
    is ["serve.requests{endpoint=\"thumb\"}"].  Keys are sorted and
    values escaped, so one label set always encodes to one name.
    Handles throughout this module (and {!Stats.Counter},
    {!Timeseries}) are names, so the result is directly usable as a
    per-label instrument. *)

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

val histogram_sum : histogram -> float
(** Exact sum (never thinned). *)

val bucket_index : float -> int
(** Bucket for a value: 0 holds values < 1; bucket [i >= 1] holds
    values in [[2^(i-1), 2^i)].  Computed on the integer part, so it is
    bit-deterministic across platforms. *)

val bucket_bound : int -> float
(** Upper bound (exclusive) of a bucket: [2^i]. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit
(** High-watermark update: keeps the maximum of the current and given
    values. *)

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
(** Snapshot of the whole registry, including every {!Stats.Counter}.
    Per-histogram snapshots are memoized until the next observation,
    merge or reset touches the cell, so repeated exporter calls over a
    quiet registry are O(series) — no percentile recomputation. *)

val reset : unit -> unit
(** Zeroes every histogram, gauge and {!Stats.Counter} (the instruments
    stay registered).  Call at run boundaries so exported snapshots are
    per-run. *)

val reset_registry : registry -> unit
(** Scrub [registry] in place for reuse as a fresh per-task shard:
    histogram cells are cleared but kept (their bucket arrays and
    reservoirs are reused), gauge cells are dropped, and the sampling
    configuration returns to the {!create_registry} default.  Merging
    a scrubbed registry is byte-identical to merging a fresh one. *)
