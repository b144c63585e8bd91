(** Binary encoding of modules — the on-disk "WASM image" artifact that
    platforms ship, store in registries and hand to the runtime.

    The format follows WebAssembly's layout in miniature: an 8-byte
    header (magic "\000asm" + version), then ordered sections (imports,
    functions, memory, globals, data, exports), each length-prefixed.
    Integers use LEB128; the decoder validates structure and rejects
    malformed input with a positioned error. *)

val magic : string
(** "\000asm". *)

val encode : Wmodule.t -> bytes

exception Malformed of { offset : int; message : string }

val decode : bytes -> Wmodule.t
(** Raises {!Malformed}. *)

val decode_result : bytes -> (Wmodule.t, string) result

(** {1 LEB128 helpers (exposed for tests)} *)

val sleb_encode : Buffer.t -> int64 -> unit
