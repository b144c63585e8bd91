(** pipe: the two-function intermediate-data microbenchmark (Fig. 11).
    Function A writes [size] bytes; function B reads and checksums
    them.  The platform's transfer latency is exactly what this app
    measures. *)

val app : seed:int -> size:int -> Fctx.app

(** no-ops: an empty function that returns immediately (cold-start
    benchmark, Fig. 10). *)
val noops : Fctx.app
