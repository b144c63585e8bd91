(** Host process / thread table.

    Each WFD (and each baseline sandbox) is one host process; functions
    run as threads created with [clone].  Threads carry the virtual
    clock they execute on.  Memory accounting (RSS) feeds Fig. 17b. *)

type pid = int
type tid = int

type thread = { tid : tid; clock : Sim.Clock.t }

type t

val create_table : unit -> t

val acquire_table : unit -> t
(** A table from the calling domain's freelist of released tables, or
    a fresh one — observationally identical to {!create_table} (tables
    are scrubbed back to the [create_table] state on release). *)

val release_table : t -> unit
(** Scrub the table and return it to the calling domain's freelist.
    The freelist takes ownership; every process still registered is
    dropped.  Only release tables whose owning request is finished
    with them (stale {e references} to a released table are harmless
    as long as nothing reads through them). *)

val spawn_process : t -> ?at:Sim.Units.time -> name:string -> unit -> pid
(** Fork+exec cost is the sandbox's concern; this just registers the
    process with its main thread started at [at]. *)

val clone_thread : t -> pid -> thread
(** Create a thread in the process, charged one [clone] syscall on the
    main thread's clock; the new thread starts at the instant the clone
    returns.  O(1): {!threads} lists threads in creation order. *)

val main_thread : t -> pid -> thread
val threads : t -> pid -> thread list
val thread_count : t -> pid -> int

val charge_rss : t -> pid -> int -> unit
(** Add resident-set bytes to the process. *)

val release_rss : t -> pid -> int -> unit
val rss : t -> pid -> int

val total_rss : t -> int
(** Resident bytes of every live process in the table, kept as a
    running sum, so reading it is O(1). *)

val exit_process : t -> pid -> unit
val live_processes : t -> int
