(** Faastlane (USENIX ATC'21) as a {!Platform.t}.

    Thread-level function execution in one process with MPK memory
    isolation and no kernel isolation.  Intermediate data passes by
    reference between sequentially-executing functions; during parallel
    phases the default configuration forks subprocesses and falls back
    to IPC over pipes (§8.1 of the AlloyStack paper).  Files live on
    the host's ext4.

    Variants follow the paper's suffixes:
    - [default_]: IPC during parallel phases, reference passing
      otherwise;
    - [refer]: reference passing everywhere ("Faastlane-refer");
    - [refer_kata]: reference passing inside a Kata MicroVM
      ("Faastlane-refer-kata");
    - [refer_kata_warm_ramfs]: the Fig. 16 configuration (in-guest
      ramfs, boot excluded). *)

val default_ : Platform.t

(** Pipes everywhere ("Faastlane-IPC", Fig. 11). *)
val ipc : Platform.t

val refer : Platform.t
val refer_kata : Platform.t

(** Kata with the boot excluded (steady-state, Fig. 16) but the
    virtualisation CPU tax and memory overheads kept. *)
val refer_kata_warm_ramfs : Platform.t

val thread_start : Sim.Units.time
(** Per-thread startup (the "Faastlane-T" bar of Fig. 10). *)
