(** Deterministic fault injection (§3.1 chaos harness).

    A {e plan} is a seeded schedule of faults that components consult at
    named {e injection sites} ([Fault.check plan ~site:"net.link.tx"]).
    Each site draws from its own RNG stream derived from the plan seed
    and the site name, so the schedule at one site never depends on how
    often other sites are checked: the same seed always yields the same
    fault schedule, making every chaos run bit-for-bit reproducible.

    Every fired injection and every recovery action is recorded through
    {!Trace} under the ["fault"] category.

    Standard sites wired through the substrate:
    - {!site_link_tx} / {!site_link_delay} / {!site_link_corrupt}:
      packet drop / extra delay / corruption per TCP burst.
    - {!site_vfs_read} / {!site_vfs_write}: transient I/O errors in the
      virtual filesystem.
    - {!site_mem_alloc}: allocation failure in the buffer heap.
    - {!site_loader_load}: transient dlmopen failure in the on-demand
      module loader.
    - {!site_fn_crash} / {!site_fn_hang}: kernel crash / hang of a
      visor function thread. *)

type trigger =
  | Always  (** Fire on every occurrence. *)
  | Probability of float  (** Fire independently with probability [p] in [0, 1]. *)
  | Nth of int  (** Fire exactly on the nth occurrence (1-based), once. *)
  | First of int  (** Fire on the first n occurrences. *)
  | Every of int  (** Fire on every nth occurrence. *)

exception Injected of { site : string }
(** Raised by components that surface a fired injection as a crash. *)

type t
(** A mutable fault plan: rules plus per-site occurrence counters. *)

val create : ?trace:Trace.t -> seed:int -> unit -> t
(** A fresh plan with no rules.  Fired injections are recorded to
    [trace] when tracing is enabled; when omitted they go to
    {!Trace.current} resolved at record time ({!Trace.global} on the
    main domain), so a plan used inside a parallel task traces into
    that task's shard. *)

val seed : t -> int

val child : t -> index:int -> t
(** Per-task plan split deterministically off the parent: same rules,
    fresh counters, site streams re-derived from a seed mixed from
    [(seed t, index)] alone — so task [index] draws the same fault
    schedule whatever the host interleaving.  Records to
    {!Trace.current}. *)

val absorb : t -> t -> unit
(** [absorb parent c] folds a finished child's occurrence and fire
    counts back into [parent] (sites visited in sorted order), so
    plan-level accounting covers the whole run. *)

val inject : t -> site:string -> ?max_fires:int -> trigger -> unit
(** Install (or replace) the rule for [site].  [max_fires] caps the
    total number of injections at the site.  Raises [Invalid_argument]
    on a probability outside [0, 1] or a non-positive count. *)

val check : ?at:Units.time -> t -> site:string -> bool
(** [check t ~at ~site] is the injection-point probe: counts one
    occurrence of [site] and reports whether the fault fires.  Sites
    with no rule never fire and keep no state.  [at] is the virtual
    time recorded with the trace event (default {!Units.zero}). *)

val fire_exn : ?at:Units.time -> t -> site:string -> unit
(** Like {!check} but raises {!Injected} when the fault fires. *)

val occurrences : t -> site:string -> int
(** Times {!check} has been called for an injected site. *)

val fired : t -> site:string -> int
(** Times the site's fault has fired. *)

val total_fired : t -> int

val schedule : t -> (string * int) list
(** [(site, fired)] for every injected site, sorted — the digest two
    same-seed runs must agree on. *)

val record_recovery : t -> at:Units.time -> site:string -> string -> unit
(** Record a recovery action (retry, restart, retransmit) taken in
    response to an injected fault, under the ["fault"] category. *)

val reset : t -> unit
(** Clear every site's occurrence counters and re-derive its RNG stream
    from the seed, so the plan replays the identical schedule. *)

(** {1 Standard site names} *)

val site_link_tx : string
val site_link_delay : string
val site_link_corrupt : string
val site_vfs_read : string
val site_vfs_write : string
val site_mem_alloc : string
val site_loader_load : string
val site_fn_crash : string
val site_fn_hang : string
