(** Uniform filesystem interface over {!Fat}, {!Extfs} and {!Ramfs}.

    The as-libos fatfs module and the baseline platforms are written
    against this interface so a workflow can be re-run on a different
    backing filesystem (the Fig. 16 ramfs experiment) without touching
    workload code. *)

type t = {
  name : string;
  write_file : ?clock:Sim.Clock.t -> string -> bytes -> unit;
  read_file : ?clock:Sim.Clock.t -> string -> bytes;
  file_size : string -> int;
  exists : string -> bool;
  delete : string -> unit;
  list_files : unit -> string list;
  reset : (unit -> unit) option;
      (** Re-format the backing image in place; [None] when the backend
          doesn't support in-place recycling (use {!recycle}). *)
}

exception Io_error of { op : string; path : string }
(** A transient device error injected by a fault plan. *)

val with_faults : Sim.Fault.t -> t -> t
(** Wrap a filesystem so that every [read_file] / [write_file] consults
    the plan's [vfs.read] / [vfs.write] injection sites first; a fired
    fault raises {!Io_error} instead of touching the backing store
    (the operation is transient — retrying consults the plan again). *)

val fresh_fat : ?mib:int -> unit -> t
(** Format a new FAT fs on a fresh device of the given size
    (default 2048 MiB, enough for the 300 MB WordCount inputs plus
    intermediates). *)

val fresh_extfs : ?mib:int -> unit -> t
val fresh_ramfs : unit -> t

val recycle : t -> bool
(** Re-format a per-request scratch image in place, reusing its arenas:
    after [recycle t = true] the image is bit-identical in behaviour to
    a matching [fresh_*] one (contents, device geometry and op
    counters all as new).  Returns [false] — image untouched —
    when the backend doesn't support it (extfs, ramfs, fault-wrapped
    views).  The serving path recycles WFD scratch disks this way
    instead of formatting ~one device per request. *)
