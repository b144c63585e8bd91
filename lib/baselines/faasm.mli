(** Faasm (USENIX ATC'20) as a {!Platform.t}.

    Thread-level Faaslets executing AOT-compiled WASM under WAVM.
    Intermediate data lives in a two-tier state layer: within a worker
    the pages are shared via mremap, but accessing them still takes
    page faults, and state operations synchronise through a fixed
    global-state protocol (§8.3 of the AlloyStack paper).

    Language variants: [c] runs the C build (WAVM is ~30% faster at
    execution than Wasmtime), [python] runs CPython-on-WASM (heavy
    runtime init, Fig. 10). *)

val c : Platform.t  (** "Faasm-C" *)

val python : Platform.t  (** "Faasm-Py" *)

val faaslet_start : Sim.Units.time
