(** Deterministic workload data generators.

    All generators are seeded so every platform sorts/counts exactly
    the same bytes and validation can compare against an
    independently-computed expected answer. *)

val payload : seed:int -> int -> bytes
(** Arbitrary binary payload of the given size. *)

val words_text : seed:int -> int -> bytes
(** ~[size] bytes of space/newline-separated lowercase words drawn from
    a Zipf-ish vocabulary — the WordCount input. *)

val int32_records : seed:int -> count:int -> bytes
(** [count] little-endian 4-byte unsigned records — the ParallelSorting
    input. *)

val record_count : bytes -> int
val get_record : bytes -> int -> int32
val set_record : bytes -> int -> int32 -> unit
