(** Minimal JSON parser/printer for workflow configuration files.

    Supports objects, arrays, strings (every JSON escape, [\uXXXX]
    decoded to UTF-8 with surrogate pairs combined), integers, floats,
    booleans and null — enough for the gateway's workflow configs
    without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

val parse : string -> t
(** Raises {!Parse_error}. *)

val parse_result : string -> (t, string) result

val to_string : t -> string
(** Strings are written with JSON escapes and bytes from 0x80 up pass
    through unchanged, so {!parse} reads back a string or key of any
    bytes. *)

(** {1 Accessors} — raise [Invalid_argument] on shape mismatch. *)

val member : string -> t -> t
(** Object field; [Null] when absent. *)

val get_string : t -> string
val get_int : t -> int
val get_list : t -> t list
val get_obj : t -> (string * t) list

val member_string : ?default:string -> string -> t -> string
val member_int : ?default:int -> string -> t -> int
val member_list : string -> t -> t list
(** Empty list when absent. *)
