(** The reference merging t-digest: the closure-sorted flush that
    [Sim.Sketch.Tdigest] replaced.  Same contract, same estimates bit
    for bit; see [Sim.Sketch.Tdigest] for each call. *)

type t

val create : ?compression:float -> unit -> t
val add : ?weight:float -> t -> float -> unit
val count : t -> float
val quantile : t -> float -> float
val percentile : t -> float -> float
val merge_into : src:t -> dst:t -> unit
val copy : t -> t
val clear : t -> unit
