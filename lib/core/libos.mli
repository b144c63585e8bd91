(** as-libos module registry and on-demand loader (§4, Fig. 7).

    A WFD starts with {e no} as-libos modules instantiated.  When a
    user function calls an as-std API whose entry is not yet in the
    WFD's entry table (an {e entry miss}), as-std asks as-visor's
    module loader to instantiate the providing module — the {e slow
    path}: a dlmopen-style namespace load plus module init, plus the
    same for any not-yet-loaded dependencies.  The entry address is
    then recorded, and subsequent calls from any function of the WFD
    take the {e fast path}. *)

type mod_def = {
  mod_name : string;
  entries : string list;  (** as-std entry names this module provides. *)
  deps : string list;  (** Modules that must be loaded first. *)
  init : Wfd.t -> clock:Sim.Clock.t -> unit;
}

val registry : mod_def list
(** All seven modules of Table 2: mm, fdtab, fatfs, socket, stdio,
    time, mmap_file_backend. *)

val module_names : string list

val providing : string -> mod_def
(** Module providing an entry name.  Raises [Invalid_argument]. *)

val load_module : Wfd.t -> clock:Sim.Clock.t -> string -> unit
(** Slow path for one module (and its dependencies): charges
    dlmopen + per-module load cost, runs init, binds entries.
    Idempotent — already-loaded modules cost nothing. *)

val attach_warm : Wfd.t -> clock:Sim.Clock.t -> unit
(** Rebuild the per-WFD state of every module a cloned WFD inherited
    from its warm template (registry order, so dependencies init
    first), charging {!Cost.warm_module_attach} per module instead of
    the dlmopen + load slow path.  Used by the warm-pool serving
    layer. *)

val ensure_entry : Wfd.t -> clock:Sim.Clock.t -> string -> [ `Fast | `Slow ]
(** The check every as-std call performs: fast path when the entry is
    bound, slow path (module load via as-visor) otherwise.  Updates the
    WFD's hit/miss counters. *)

val load_all : Wfd.t -> clock:Sim.Clock.t -> unit
(** Disable on-demand loading: instantiate every module up front plus
    the full entry-table binding (the "AS-load-all" configuration of
    Fig. 10). *)

val load_all_cost : Sim.Units.time
(** Static total of {!load_all} on an empty WFD (the paper's 88.1 ms). *)
