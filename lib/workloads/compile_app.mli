(** online-compiling (Table 1): the most demanding ServerlessBench
    function, realised for real with the WASM pipeline.

    A three-function workflow: [fetch] stages the binary-encoded WASM
    module as intermediate data; [compile] decodes it, validates it and
    AOT-compiles it under the Wasmtime profile (checking the lowered
    image against the blacklist scanner — §6's admission for WASM);
    [execute] runs the compiled entry point and publishes the result.

    The module that flows through the pipeline really is bytecode: the
    default program computes sum(1..n) in a loop. *)

val app : ?n:int -> seed:int -> unit -> Fctx.app
(** [n] is the argument to the compiled function (default 50_000);
    [validate] checks the executed result equals n*(n+1)/2. *)
