(** FaasData: the typed, serialisable values that flow through
    AsBuffers.

    The Rust original derives [FaasData] on user structs; here a small
    structural value type plays that role.  Every value has a
    {e fingerprint} — a structural type hash — which [alloc_buffer] /
    [acquire_buffer] compare so a receiver cannot misinterpret a
    buffer written with a different type (Table 2's [fingerprint]
    parameter). *)

type t =
  | Unit
  | Int of int64
  | Str of string
  | Raw of bytes  (** Bulk payloads (the benchmark data plane). *)
  | Pair of t * t
  | List of t list
  | Record of (string * t) list

val fingerprint : t -> int64
(** Structural type hash: depends on the shape (constructors and record
    field names), not on payload contents — two values of the same
    "type" share a fingerprint. *)

val encode : t -> bytes
(** Tag-length-value encoding. *)

val decode : bytes -> t
(** Raises [Invalid_argument] on malformed input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val record_get : t -> string -> t
(** Field of a [Record]; raises [Not_found] / [Invalid_argument]. *)
