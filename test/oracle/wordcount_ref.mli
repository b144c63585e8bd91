(** The reference word counter: the one-[Hashtbl.find]-per-word loop
    that [Workloads.Wordcount.count_words] replaced.  Same contract:
    words are maximal runs of bytes other than space, newline, tab and
    carriage return, and each distinct word is [Hashtbl.add]ed at its
    first occurrence, so both tables hold the same bindings in the same
    fold order. *)

val count_words : bytes -> (string, int ref) Hashtbl.t
