(** WordCount: MapReduce word-frequency counting (from vSwarm).

    High parallelism, sparse intermediate data.  Stage structure:
    [split -> map xM -> reduce xM -> merge]; the splitter cuts the
    input on word boundaries, each mapper counts its chunk and
    hash-partitions the counts towards the reducers, each reducer
    merges its partition, and the merger writes the sorted
    "word count" table. *)

val input_path : string
val output_path : string

val app : seed:int -> size:int -> instances:int -> Fctx.app
(** [size] bytes of generated text, [instances] mappers and reducers. *)

val expected_counts : seed:int -> size:int -> (string * int) list
(** Ground truth computed directly from the generated input. *)

(** {1 Internals exposed for tests} *)

val count_words : bytes -> (string, int ref) Hashtbl.t
val encode_counts : (string * int) list -> bytes
val decode_counts : bytes -> (string * int) list
