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
    and insertion order (as seen by {!iter}) is never disturbed.
    Sketched collections answer from the t-digest — deterministic, but
    an estimate. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val percentile_time : t -> float -> Units.time
(** Percentile of durations recorded with {!add_time}. *)

val mean_time : t -> Units.time
val clear : t -> unit

val iter : (float -> unit) -> t -> unit
(** [iter f t] applies [f] to the retained samples in insertion order:
    all of them for {!create}, none for {!sketched}.  Builds no list or
    copy. *)

(** Named monotonic event counters.  A counter is a sum, so its value
    cannot depend on the order of its bumps: {!make} returns one
    process-wide atomic cell per name, and {!incr}/{!add} update it in
    place from any domain, inside a [Par] shard or not.  Shards carry
    no counters and nothing merges them. *)
module Counter : sig
  type t

  val make : string -> t
  (** The cell for [name], registered at zero on first use so
      never-bumped counters still export.  Repeated calls with one name
      share one cell. *)

  val incr : t -> unit
  val add : t -> int -> unit
end

val counter_value : string -> int
(** Current value of the named counter; 0 if never registered. *)

val counters : unit -> (string * int) list
(** Every registered counter, sorted by name. *)

val reset_counters : unit -> unit
(** Zeroes every counter (tests and repeated bench runs); the names
    stay registered. *)
