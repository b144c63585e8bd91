(** Time and size units for the simulated machine.

    All simulated durations are kept in nanoseconds as [int64] wrapped in
    an abstract {!time} type so that a raw integer cannot be confused with
    a duration.  Sizes are plain [int] byte counts with named
    constructors. *)

type time
(** A duration or instant on the virtual clock, in nanoseconds. *)

val zero : time

val ns : int -> time
val us : int -> time
val ms : int -> time
val sec : int -> time

val ns_f : float -> time
(** [ns_f x] rounds [x] nanoseconds to the nearest integral duration. *)

val us_f : float -> time
val ms_f : float -> time

val to_ns : time -> int64
val to_us : time -> float
val to_ms : time -> float
val to_sec : time -> float

val add : time -> time -> time
val sub : time -> time -> time
(** [sub a b] saturates at {!zero} rather than going negative. *)

val diff : time -> time -> time
(** [diff a b] is [abs (a - b)]. *)

val scale : time -> float -> time
val max : time -> time -> time
val min : time -> time -> time
val compare : time -> time -> int
val equal : time -> time -> bool
val ( + ) : time -> time -> time
val ( - ) : time -> time -> time
val ( < ) : time -> time -> bool
val ( <= ) : time -> time -> bool
val ( > ) : time -> time -> bool
val ( >= ) : time -> time -> bool

val pp : Format.formatter -> time -> unit
(** Human-readable rendering with an adaptive unit (ns, µs, ms, s). *)

val to_string : time -> string

(** {1 Sizes} *)

val kib : int -> int
val mib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Adaptive rendering of a byte count (B, KB, MB, GB). *)

val bytes_to_string : int -> string

(** {1 Rates} *)

val time_for_bytes : bytes_per_sec:float -> int -> time
(** [time_for_bytes ~bytes_per_sec n] is the duration needed to move [n]
    bytes at the given sustained bandwidth. *)

val gbit_per_sec : float -> float
(** [gbit_per_sec g] converts Gbit/s to bytes/s. *)

val mb_per_sec : float -> float
(** [mb_per_sec m] converts MB/s (10^6) to bytes/s. *)
