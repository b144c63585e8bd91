(** A constant-memory quantile sketch: the merging t-digest.

    {!Tdigest} keeps O(compression) centroids, answers any quantile
    after the fact, and merges losslessly in a deterministic order — the
    shape used when a thinned reservoir ({!Stats}, {!Metrics}) must
    still answer p50/p99 at 10^6 samples.

    Determinism: the sketch is a pure function of the sequence of [add]
    calls and queries.  Feeding the same values in the same order, and
    querying at the same points, always yields bit-identical estimates,
    on any host and any domain count.  A query compresses the pending
    buffer, so it is part of that sequence; query a {!Tdigest.copy} to
    leave the original's later estimates untouched. *)

module Tdigest : sig
  type t
  (** Mergeable t-digest (merging variant, scale function
      [4 q (1-q) / compression]). *)

  val create : ?compression:float -> unit -> t
  (** [compression] bounds centroid count (default 100.0 — roughly
      2*compression centroids, ~1% worst-case rank error, far better
      near the median and the tails). *)

  val add : ?weight:float -> t -> float -> unit
  (** [add ?weight t x] records [x] ([weight] defaults to 1.0). *)

  val count : t -> float
  (** Total recorded weight. *)

  val centroid_count : t -> int
  (** Current number of centroids (after compressing the buffer). *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0,1]; [nan] when empty.  Clamped to
      the observed min/max. *)

  val percentile : t -> float -> float
  (** [percentile t p] = [quantile t (p /. 100.)]. *)

  val min_value : t -> float
  val max_value : t -> float

  val merge_into : src:t -> dst:t -> unit
  (** Fold [src]'s centroids into [dst].  [src] is compressed but
      unchanged.  Deterministic given the call order. *)

  val copy : t -> t
  (** An independent sketch with the same state: adds and queries on
      either leave the other unchanged. *)

  val clear : t -> unit
end
