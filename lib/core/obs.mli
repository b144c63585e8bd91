(** Observability exporters and critical-path analysis.

    {!Sim.Span} and {!Sim.Metrics} live in the dependency-free [sim]
    library and only collect; this module turns the collected data into
    artifacts:

    - a Chrome [trace_event] JSON document (load it in Perfetto or
      [chrome://tracing] — one track per root span),
    - a JSONL dump of the raw span tree (one span per line),
    - a JSON snapshot of the metrics registry,
    - a critical-path latency breakdown that attributes a root span's
      whole duration to cost categories with no unattributed remainder.

    Everything here is deterministic: two identically seeded runs
    export byte-identical documents. *)

(** {1 Exporters} *)

val trace_json_string : ?collector:Sim.Span.t -> unit -> string

val spans_jsonl : ?collector:Sim.Span.t -> unit -> string
(** One JSON object per line per span, in id order:
    [{"id":..,"parent":..,"category":..,"label":..,"begin_ns":..,
    "end_ns":..,"attrs":{..}}].  Empty string when no spans. *)

val metrics_json_string : unit -> string

(** {1 Critical-path breakdown} *)

val categories : string list
(** The attributable cost categories, in report order: boot,
    load-slow, load-fast, compute, transfer, network, io, retry.
    Time inside structural spans (workflow / stage / function /
    request) that no attributable child covers reports as ["other"]. *)

type breakdown = {
  bd_root : Sim.Span.id;
  bd_label : string;  (** The root span's label. *)
  bd_total : Sim.Units.time;  (** The root span's full duration. *)
  bd_buckets : (string * Sim.Units.time) list;
      (** {!categories} order then ["other"]; every bucket present,
          zero or not.  The buckets sum to [bd_total] {e exactly}. *)
}

val breakdown : ?collector:Sim.Span.t -> root:Sim.Span.id -> unit -> breakdown
(** Walks the span tree under [root] along the latest-finisher critical
    path: within any span, walking backwards from its end, the child
    that finishes latest claims its interval (recursively), gaps
    between claimed intervals go to the enclosing span's bucket, and
    shadowed siblings contribute nothing — so the buckets partition
    the root interval exactly.  Raises [Invalid_argument] if [root]
    does not exist. *)

val find_root :
  ?collector:Sim.Span.t -> category:string -> unit -> Sim.Span.span option
(** Latest root span of the given category, if any. *)

val render_breakdown : breakdown -> string
(** Human-readable table: one line per non-zero bucket with duration
    and percentage, then the total. *)

(** {1 Tail attribution}

    Why were the slow requests slow?  For every sampled root span at
    or above a latency quantile, run the critical-path breakdown and
    charge the request to its {e dominant} bucket — the category
    holding the most critical-path time.  The aggregated verdict table
    turns "p99 is 800ms" into "the p99 is cold boots". *)

type tail_entry = {
  te_category : string;  (** Dominant cost bucket. *)
  te_count : int;  (** Tail requests charged to it. *)
  te_share : float;  (** Fraction of all tail requests. *)
  te_mean_total : Sim.Units.time;  (** Mean e2e latency of those. *)
  te_mean_bucket : Sim.Units.time;  (** Mean time in the bucket. *)
}

type tail_report = {
  tr_quantile : float;
  tr_threshold : Sim.Units.time;
      (** The exact nearest-rank quantile of the sampled population. *)
  tr_population : int;  (** Sampled root spans considered. *)
  tr_tail : int;  (** Roots at or above the threshold. *)
  tr_entries : tail_entry list;
      (** Largest count first; ties keep {!categories} order. *)
}

val tails :
  ?collector:Sim.Span.t -> ?quantile:float -> ?category:string -> unit -> tail_report
(** [quantile] defaults to 99.0.  Roots of [category] are analysed
    when given; otherwise ["request"] roots when any exist (the
    serving shape), else every root.  Under span sampling
    ([sample_every]) the population is the sampled requests — exact
    counters elsewhere are unaffected.  Raises [Invalid_argument]
    when [quantile] is outside (0,100]. *)

val render_tails : tail_report -> string
(** Verdict table, one line per dominant category. *)

val tails_json : tail_report -> Jsonlite.t
(** [{"quantile":..,"threshold_ns":..,"population":..,"tail":..,
    "verdicts":[{"category":..,"count":..,"share":..,
    "mean_total_ns":..,"mean_bucket_ns":..},..]}]. *)

(** {1 Prometheus export} *)

val prometheus_string : unit -> string
(** The current {!Sim.Metrics} registry in the Prometheus text
    exposition format: counters and gauges as single samples,
    histograms as cumulative [le] buckets (log2 bounds) plus [_sum]
    and [_count].  Dotted names sanitize to underscores;
    [Metrics.labels]-encoded names keep their label blocks.  Floats
    render fixed-point, so identical registries export byte-identical
    text on any host. *)
