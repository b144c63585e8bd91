(** Time-bounded soak runs against a {!Alloystack_core.Visor.Server}.

    A soak serves a seeded open loop ({!Loadgen.request_stream_until})
    for a virtual horizon through {!Alloystack_core.Visor.Server.serve_fold},
    so nothing is retained per response.  Every [seconds / 12] virtual
    seconds it records a {!snapshot} and prints it; at the end
    {!memory_verdict} judges whether live memory stayed flat.  The
    virtual fields of a snapshot are identical at every host domain
    count. *)

type snapshot = {
  sn_at : int;  (** The virtual second the snapshot was due at. *)
  sn_completed : int;  (** Responses so far, ok or not. *)
  sn_inflight : int;  (** Requests arrived and not yet finished, exactly. *)
  sn_live_words : int;  (** [Gc] live words after a full major collection. *)
  sn_p50 : Sim.Units.time;
  sn_p99 : Sim.Units.time;
      (** Latency percentiles of the ok responses so far, from the same
          t-digest the server keeps under [sketch_latency]; zero before
          the first ok response. *)
  sn_alerts : Sim.Slo.alert list;
      (** SLO alerts fired since the previous snapshot, in instant
          order. *)
}

val enable_telemetry :
  Alloystack_core.Visor.Server.t -> seconds:int -> slos:Sim.Slo.spec list -> unit
(** Telemetry sized for a soak of [seconds]: windows of
    [max 1 (seconds / 256)] virtual seconds, 64 of them retained — the
    last quarter of the run — so the retained per-window digests
    plateau well before {!memory_verdict} starts comparing
    snapshots. *)

type result = {
  snapshots : snapshot list;  (** In time order. *)
  latency : Sim.Stats.t;
      (** The soak's own latency sketch after the last response: ok
          latencies in completion order, so its percentiles equal the
          summary's when the server was created with
          [sketch_latency:true]. *)
  summary : Alloystack_core.Visor.Server.summary;
}

val run :
  Alloystack_core.Visor.Server.t ->
  seed:int ->
  qps:float ->
  endpoints:string array ->
  seconds:int ->
  result
(** Serve [seconds] of virtual time at [qps], picking among
    [endpoints] with the seeded generator.  Each snapshot is printed as
    it is taken: one line of its fields, then one indented line per
    alert. *)

type verdict = {
  first : int;  (** The first snapshot's live words. *)
  worst : int;  (** The largest live-words reading in the second half. *)
  flat : bool;  (** [worst <= 1.25 * first + 10^6]. *)
}

val memory_verdict : snapshot list -> verdict option
(** The flat-memory rule: the worst live-words reading among the second
    half of the snapshots must stay within 25% of the first reading,
    plus 10^6 words of GC noise on small heaps.  [None] with fewer than
    two snapshots. *)
