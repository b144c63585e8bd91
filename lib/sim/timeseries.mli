(** Windowed virtual-time series.

    Fixed-width windows (default 1 virtual second) over the simulated
    clock, ring-buffered with bounded retention so a soak run's memory
    stays O(retention) however long it serves.  Three series kinds:

    - {e counters} — per-window sums (request counts, error counts);
    - {e gauges} — per-window high-watermarks (inflight);
    - {e dists} — per-window value distributions: exact count/sum plus
      a {!Sketch.Tdigest} per window for rolling percentiles.

    Determinism: a timeseries is a pure function of the sequence of
    observations it receives.  The serving path records observations
    from the sequential virtual-time merge loop, so identical runs —
    whatever the host domain count — produce byte-identical CSV
    exports.

    Window arithmetic: window [w] covers virtual instants
    [[w*width, (w+1)*width)], so an observation landing exactly on a
    boundary opens the {e next} window. *)

type t

type series
(** Handle for a counter or gauge series. *)

type dist
(** Handle for a distribution series. *)

val create : ?width:Units.time -> ?retention:int -> unit -> t
(** [width] defaults to one virtual second; [retention] (default 4096)
    bounds the number of windows kept per series — older windows are
    dropped (counted in {!dropped}).  Raises [Invalid_argument] when
    [width] is zero or [retention < 1]. *)

val width : t -> Units.time
val retention : t -> int

val counter : t -> string -> series
(** Registered per-window-sum series, created on first use; repeated
    calls with one name share the series. *)

val gauge : t -> string -> series
(** Registered per-window-max series.  Raises [Invalid_argument] if
    [name] is already a counter (and vice versa). *)

val dist : t -> string -> dist
(** Registered distribution series. *)

val add : t -> series -> at:Units.time -> float -> unit
(** Accumulate into the window containing [at]: sum for counters, max
    for gauges.  Observations older than the retention horizon are
    dropped (counted); anything else, including out-of-order arrivals
    within retention, lands in its window. *)

val observe : t -> dist -> at:Units.time -> float -> unit
(** Record a value into the window containing [at]. *)

val window_of : t -> Units.time -> int
(** Index of the window containing an instant. *)

val window_start : t -> int -> Units.time
val last_window : t -> int
(** Highest window touched by any observation; [-1] while empty. *)

val first_window : t -> int
(** Oldest retained window: [max 0 (last_window - retention + 1)];
    [0] while empty. *)

val dropped : t -> int
(** Observations discarded for falling behind the retention horizon. *)

val value : t -> series -> int -> float
(** Counter sum (or gauge max) in a window; [0] for windows never
    observed, out of range, or beyond retention. *)

val dist_count : t -> dist -> int -> int
val dist_sum : t -> dist -> int -> float

val dist_percentile : t -> dist -> int -> float -> float
(** [dist_percentile t d w p] for [p] in [0,100]; [0] when the window
    is empty. *)

val names : t -> string list
(** Registered series names (all kinds), sorted. *)

val to_csv : t -> string
(** The retained windows as CSV, one row per (series, window) covering
    [first_window .. last_window] with empty windows included:
    {[name,kind,window,start_s,value,count,sum,p50,p99]}
    Counter/gauge rows leave count/sum/p50/p99 empty; dist rows leave
    value empty.  Rows are sorted by name then window; floats are
    fixed-point (no [%g]), so equal series render byte-identically on
    any host. *)

val clear : t -> unit
(** Drop all windows and reset {!dropped}; registered series remain. *)
