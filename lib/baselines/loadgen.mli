(** Open-loop load generator for tail-latency experiments (Fig. 17a).

    Poisson arrivals into a [cores]-core cluster; each request is a gang
    needing [width] cores for its service time.  A contention factor
    models per-request sandbox state (Kata's rootfs/cgroup churn)
    degrading service as the number of in-flight requests grows — the
    mechanism the paper blames for Kata's P99 blow-up under QPS. *)

type spec = {
  cores : int;
  width : int;  (** Cores a request occupies simultaneously. *)
  service : Sim.Units.time;  (** Base service time of one request. *)
  contention : float;
      (** Fractional service-time growth per concurrent in-flight
          request. *)
}

type result = {
  p50 : Sim.Units.time;
  p99 : Sim.Units.time;
  max_inflight : int;
  mean_sojourn : Sim.Units.time;
}

val run : ?seed:int -> spec -> qps:float -> requests:int -> result
(** In-flight tracking uses a min-heap of finish times, so a run costs
    O(n log w) for peak concurrency w — no per-request linear scan. *)

val saturation_qps : spec -> float
(** The arrival rate at which offered load equals capacity
    ([cores / (width * service)]); past it the queue grows without
    bound. *)

(** {1 Streaming arrival process}

    A seeded Poisson process generated one arrival at a time: constant
    memory whatever the request count, and bit-identical (same seed,
    same qps) to materialising the whole schedule up front, because the
    draws are the same — one exponential per arrival, then any endpoint
    pick from the same stream. *)

type arrivals

val arrivals : ?seed:int -> qps:float -> unit -> arrivals
(** Raises [Invalid_argument] when [qps <= 0]. *)

val next_arrival : arrivals -> Sim.Units.time
(** Advance the process one arrival and return its absolute instant.
    Arrivals are strictly increasing (up to float granularity,
    nondecreasing). *)

val arrivals_count : arrivals -> int
(** Arrivals generated so far. *)

val request_stream :
  ?seed:int ->
  qps:float ->
  endpoints:string array ->
  count:int ->
  unit ->
  unit ->
  (string * Sim.Units.time) option
(** [request_stream ~qps ~endpoints ~count ()] is a generator yielding
    [count] [(endpoint, arrival)] pairs then [None].  With several
    endpoints each request draws its endpoint uniformly {e after} its
    inter-arrival gap (one [Rng.pick] from the same stream); with a
    single endpoint no pick is drawn.  Raises [Invalid_argument] on an
    empty endpoint array or negative count. *)

val request_stream_until :
  ?seed:int ->
  qps:float ->
  endpoints:string array ->
  horizon:Sim.Units.time ->
  unit ->
  unit ->
  (string * Sim.Units.time) option
(** Time-bounded variant of {!request_stream} for soak runs: yields
    every arrival at or before [horizon], then [None].  Same draw
    sequence as {!request_stream} for equal seeds, so the shared prefix
    of the two streams is bit-identical.  Raises [Invalid_argument] on
    an empty endpoint array. *)
