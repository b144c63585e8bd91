(** The ServerlessBench functions of Table 1, with the kernel
    components each one requires.

    Used by the Table 1 reproduction, the image-processing example and
    the on-demand-loading tests: running a pipeline composed of these
    functions should load exactly the union of their module lists. *)

type entry = { fn_name : string; components : string list; kernel : Fctx.kernel }

val table : entry list
(** All nine functions of Table 1 with the paper's component lists. *)

val find : string -> entry
(** Raises [Not_found]. *)

val image_pipeline : seed:int -> Fctx.app
(** The image-processing workflow the paper's examples sketch:
    extract-image-metadata -> transform-metadata -> handler ->
    thumbnail -> store-image-metadata. *)
