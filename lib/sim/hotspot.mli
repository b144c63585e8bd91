(** Host-time and host-allocation hotspot profiler: nestable sections
    with per-domain accumulators.

    This measures where the *simulator* spends host time and host
    allocation — it never touches virtual clocks, so enabling it cannot
    change any simulated result.  Disabled (the default), an
    {!enter}/{!leave} pair costs one atomic load, a branch and a
    physical comparison and allocates nothing, so call sites stay in
    hot paths permanently.  The program's own call sites use that
    pair; {!with_section} is the same section around a thunk, whose
    closure the caller allocates whether profiling is on or not. *)

type entry = {
  hs_name : string;
  hs_count : int;  (** Times the section was entered. *)
  hs_total_ns : float;  (** Accumulated host nanoseconds, inclusive of
                            nested sections. *)
  hs_minor_words : float;
      (** GC minor-heap words allocated inside the section, inclusive
          of nested sections, read with {!Gc.minor_words}: exact to the
          word, the profiler's own boundary allocation excluded. *)
  hs_major_words : float;
      (** Words allocated directly in the major heap (major minus
          promoted: promotion is not new allocation), inclusive of
          nested sections.  [hs_minor_words + hs_major_words] is the
          section's share of the words the program allocated. *)
}

val entry_words : entry -> float
(** Total allocated words of an entry: minor + direct-major. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Turn profiling on or off globally (all domains). *)

type section
(** An open section. *)

val enter : string -> section
(** Open a section named [name] on the calling domain.  When profiling
    is disabled this returns a shared placeholder and allocates
    nothing; when enabled it reads the host clock and the GC counters
    (the [Gc.counters] tuple, the clock reading and the section record
    are charged to the enclosing section, not to this one). *)

val leave : section -> unit
(** Close a section opened by {!enter}, charging its host duration and
    allocated words to its name.  A no-op for a section opened while
    profiling was disabled.  Every [enter] should be matched by one
    [leave] on the same domain, exception paths included, or the
    section is never charged. *)

val with_section : string -> (unit -> 'a) -> 'a
(** [with_section name f] runs [f], charging its host duration and
    allocated-words deltas to [name] on the calling domain's
    accumulator when profiling is
    enabled.  Sections nest; a parent's total includes its children.
    Exceptions propagate and still charge the section. *)

val snapshot : unit -> entry list
(** Merge every domain's accumulators, sorted by section name.  Only
    meaningful while the instrumented workload is quiescent: worker
    domains update their tables without locks. *)

val reset : unit -> unit
(** Zero all accumulators on every domain. *)
