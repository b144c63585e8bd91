(** Structured execution tracing.

    A bounded ring of timestamped events.  Components record lifecycle
    events (WFD creation, module loads, entry misses, stage
    completions); tools dump or filter them.  Tracing is off by default
    and costs one branch when disabled. *)

type event = {
  at : Units.time;
  category : string;  (** e.g. "visor", "loader", "asbuffer". *)
  label : string;
  detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 4096 events; older events are dropped. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> at:Units.time -> category:string -> label:string -> string -> unit
(** No-op when disabled. *)

val recordf :
  t ->
  at:Units.time ->
  category:string ->
  label:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted detail.  When tracing is disabled no detail string is
    built and custom [%a] printers are never invoked; only the argument
    expressions themselves are evaluated at the call site. *)

val events : t -> event list
(** Oldest first. *)

val count : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events lost to ring overflow. *)

val filter : t -> category:string -> event list
val clear : t -> unit
val pp_event : Format.formatter -> event -> unit
val dump : t -> string

val global : t
(** Process-wide trace used by the core library; disabled by default. *)

val current : unit -> t
(** Domain-local current buffer: {!global} on the main domain (unless
    {!set_current} swapped it), a private throwaway instance on worker
    domains.  [Par.with_shard] uses this slot to route a parallel
    task's events into a per-task shard. *)

val set_current : t -> unit

val import : t -> offset:Units.time -> t -> unit
(** [import t ~offset shard] replays [shard]'s events into [t] with
    times shifted by [offset], oldest first.  No-op while [t] is
    disabled. *)
