(** AlloyStack as a {!Platform.t}: the shared workload kernels run as
    real WFD function threads, with the {!Fctx.t} transport wired to
    as-std / AsBuffer.

    One platform covers the paper's single-node deployment and its §9
    multi-node one.  A workflow too large for one node is split along
    stage boundaries into several WFDs, one per node: the manual,
    contiguous split the paper supports ("developers can manually
    divide the DAG").  Within a WFD intermediate data still moves by
    reference; across WFDs it falls back to "traditional" transfer,
    serialised and shipped over the datacenter network
    ({!bridge_cost}). *)

type fs_backend = Fat_image | Ram_fs

type options = {
  language : Alloystack_core.Workflow.language;
  features : Alloystack_core.Wfd.features;
  fs : fs_backend;
  wasm_runtime : Wasm.Runtime.profile option;
      (** Runtime hosting C/Python functions; default Wasmtime. *)
  nodes : int;
      (** WFDs the stages are split into ({!split_stages}), one per
          node, run in turn on the shared pre-staged disk; default 1.
          With more than one group, the metrics sum e2e, CPU time and
          phase totals over the groups, take cold start from the first
          and peak RSS as the maximum, and a payload a group receives
          from an earlier group costs {!bridge_cost}.  A name gains
          ["-<n>node"] when [nodes > 1]. *)
}

val default_options : options

val make : ?options:options -> unit -> Platform.t
(** "AlloyStack" with the paper's defaults.  Its [run] raises
    [Invalid_argument] when [options.nodes < 1]. *)

val alloystack : Platform.t  (** Rust, on-demand + ref-passing, FAT. *)

val alloystack_ifi : Platform.t  (** "AS-IFI": inter-function isolation. *)

val alloystack_c : Platform.t  (** "AS-C": C via Wasmtime. *)

val alloystack_py : Platform.t  (** "AS-Py": Python via Wasmtime+CPython. *)

val alloystack_ramfs : Platform.t  (** Fig. 16: ramfs-backed disk. *)

val ablation :
  on_demand:bool -> ref_passing:bool -> Platform.t
(** The Fig. 14 feature grid ("base", "+on-demand", "+ref-passing",
    "+both"). *)

val split_stages : 'a list -> parts:int -> 'a list list
(** Contiguous, balanced split (exposed for tests): concatenation of
    the result equals the input, length = [min parts (length list)].
    Raises [Invalid_argument] when [parts <= 0]. *)

val bridge_cost : int -> Sim.Units.time
(** One cross-WFD handoff of [n] bytes: serialisation at both ends plus
    the wire time on the datacenter link. *)
