(** Direct interpreter for the stack machine: the reference the test
    suite checks {!Wasm.Aot} against.

    Executes a validated module against host imports, counting every
    retired instruction.  Traps follow WebAssembly: out-of-bounds memory
    access, division by zero, [unreachable], stack underflow and fuel
    exhaustion all raise {!Trap}. *)

exception Trap of string

type t
(** A live instance: linear memory, globals, instruction counter. *)

type host_fn = t -> int64 array -> int64
(** Host imports receive the instance (so they can touch its memory). *)

val instantiate : ?hosts:(string * host_fn) list -> Wasm.Wmodule.t -> t
(** Validates, allocates memory/globals, runs data initialisers.
    Raises [Invalid_argument] on validation failure or missing
    imports. *)

val call : ?fuel:int -> t -> string -> int64 array -> int64
(** Invoke an exported function.  [fuel] bounds retired instructions
    (default 200 million).  The result is the value on top of the stack
    when the function returns (0 for an empty stack). *)

val executed : t -> int
(** Instructions retired since instantiation. *)
