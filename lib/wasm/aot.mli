(** Ahead-of-time compiler: lowers a module to OCaml closures.

    This is the Wasmtime-AOT analogue of the paper (§6, §7.2): the
    module is translated once into host-native code (here, a closure
    tree with no instruction dispatch), and calling an export runs the
    compiled form.  Results agree exactly with the reference
    interpreter in the test suite's oracle library — a qcheck property
    enforces it — while the per-instruction execution cost the runtime
    layer charges is the native one.

    Compilation yields an {e image} whose instruction stream can be fed
    to the {!Isa} blacklist scanner, preserving AlloyStack's
    admission-control path for WASM workloads. *)

exception Trap of string

type compiled

val compile : Wmodule.t -> compiled
(** Validates and compiles; raises [Invalid_argument] on validation
    failure. *)

val to_image : compiled -> Isa.Image.t
(** The binary image of the compiled module for instruction
    scanning.  AOT output never contains blacklisted opcodes: OS access
    is compiled to calls into the embedder. *)

type instance

type host_fn = instance -> int64 array -> int64

val instantiate : ?hosts:(string * host_fn) list -> compiled -> instance

val call : ?fuel:int -> instance -> string -> int64 array -> int64
val executed : instance -> int
val read_memory : instance -> int -> int -> bytes
val write_memory : instance -> int -> bytes -> unit
