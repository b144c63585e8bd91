(** Structural validation of a module before instantiation.

    Checks the properties the interpreter and AOT compiler rely on:
    branch depths stay within the enclosing block structure, local and
    global indices are in range, call targets exist, exports point at
    real functions, and data initialisers fit in the initial memory.
    (A full type checker is unnecessary for a single-value-type
    machine.) *)

type error = { func : string option; message : string }

val validate : Wmodule.t -> (unit, error list) result

val validate_exn : Wmodule.t -> unit
(** Raises [Invalid_argument] with the first error rendered. *)
