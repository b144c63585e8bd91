(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulation draws from an explicit
    [Rng.t] so that runs are reproducible given a seed, and independent
    subsystems can be given split streams that do not interfere. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val copy : t -> t
(** An independent generator continuing from [t]'s current state. *)

val golden_gamma : int64
(** The splitmix64 stream increment; exposed so seed-derivation schemes
    (per-task fault plans, shard streams) can mix indices the same way
    the generator itself does. *)

val mix : int64 -> int64
(** The splitmix64 finalizer: a bijective avalanche over 64 bits.
    Deterministic seed derivation for split streams. *)

val split : t -> t
(** [split t] derives an independent stream, advancing [t]. *)

val next_int64 : t -> int64
val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from Exp(1/mean); used for Poisson
    arrival processes. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal draw. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] draws a uniformly random element.  [arr] must be
    non-empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)
