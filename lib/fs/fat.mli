(** FAT filesystem over a {!Blockdev} — the rust-fatfs analogue.

    The structure is real: a file allocation table with cluster chains
    (4 KiB clusters), a directory table, first-free cluster allocation,
    and chain walking on every read.  The perf profile is calibrated to
    Table 4 of the paper (read 362 MB/s, write 1562 MB/s): reads pay a
    chain-walk overhead per cluster on top of the copy; writes go
    through a write-behind buffer and only pay allocation + copy. *)

type t

val format : Blockdev.t -> t
(** Initialise an empty filesystem covering the whole device. *)

val reset : t -> unit
(** Re-format in place, device included: indistinguishable from
    [format] on a fresh device of the same geometry, but reusing the
    existing arenas (WFD recycling resets scratch disks this way). *)

val create_file : t -> string -> unit
(** Create an empty file.  Raises [Invalid_argument] if it exists. *)

val write_file : t -> ?clock:Sim.Clock.t -> string -> bytes -> unit
(** Create-or-truncate write.  Charges the calibrated write cost to the
    clock when given. *)

val read_file : t -> ?clock:Sim.Clock.t -> string -> bytes
(** Whole-file read; walks the cluster chain.  Raises [Not_found]. *)

val file_size : t -> string -> int
(** Raises [Not_found]. *)

val exists : t -> string -> bool
val delete : t -> string -> unit
(** Frees the cluster chain.  Raises [Not_found]. *)

val list_files : t -> string list

val free_clusters : t -> int
val cluster_size : int

val chain_length : t -> string -> int
(** Number of clusters in the file's chain (tests). *)
