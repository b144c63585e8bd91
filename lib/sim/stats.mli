(** Latency / value sample collection with percentile queries. *)

type t

val create : unit -> t
(** Exact collection: every sample retained, percentiles from a sorted
    view. *)

val sketched : unit -> t
(** Constant-memory collection: aggregates (count/sum/min/max/stddev)
    are maintained incrementally, no raw samples are kept, and
    {!percentile} answers from a deterministic t-digest
    ({!Sketch.Tdigest}).  Queries read a copy of the digest, so an
    estimate depends only on the values added so far, never on when
    earlier estimates were read. *)

val add : t -> float -> unit
val add_time : t -> Units.time -> unit
(** Records the duration in nanoseconds. *)

val count : t -> int
val is_empty : t -> bool
val mean : t -> float
val min : t -> float
val max : t -> float
val sum : t -> float
val stddev : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100].  Raises [Invalid_argument]
    on an empty collection.  Exact collections interpolate linearly
    between closest ranks over a cached sorted view that is invalidated
    by {!add} and {!clear}, so a batch of percentile queries sorts once
    and insertion order (as seen by {!to_list}) is never disturbed.
    Sketched collections answer from the t-digest — deterministic, but
    an estimate. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val percentile_time : t -> float -> Units.time
(** Percentile of durations recorded with {!add_time}. *)

val mean_time : t -> Units.time
val clear : t -> unit

val to_list : t -> float list
(** Retained samples in insertion order: all of them for {!create},
    none for {!sketched}. *)

(** Named monotonic event counters.  A handle is just the counter's
    name; the value cell lives in a {e registry} resolved through
    domain-local storage on every bump.  On the main domain that is the
    default process registry, so behaviour is unchanged for sequential
    code; [Par.with_shard] swaps in a per-task registry so parallel
    tasks count without locks, then {!merge_counters} folds the shard
    back at a deterministic join.  [reset_counters] zeroes every
    counter in the current registry (tests and repeated bench runs). *)
module Counter : sig
  type t

  type registry

  val create_registry : unit -> registry

  val current : unit -> registry
  (** Domain-local current registry (the process default on the main
      domain unless {!set_current} swapped it). *)

  val set_current : registry -> unit

  val make : string -> t
  (** Returns the counter handle for [name] and pre-registers it (at
      zero) in the default registry so never-bumped counters still
      export.  Call at module init, on the main domain. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
  val reset : t -> unit

  val reset_registry : registry -> unit
  (** Zero every counter cell in [registry] in place (cells are kept,
      so a recycled shard reuses them; {!merge_counters} skips zero
      counts, so merging a scrubbed registry is byte-identical to
      merging a fresh one). *)
end

val counter_value : string -> int
(** Current value of the named counter; 0 if never registered. *)

val counters : unit -> (string * int) list
(** All counters registered in the current registry, sorted by name. *)

val reset_counters : unit -> unit

val merge_counters : Counter.registry -> unit
(** Add every count in the given shard registry into the current one
    (names visited in sorted order; sums are order-insensitive). *)
