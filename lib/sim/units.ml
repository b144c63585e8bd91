(* Durations are nanoseconds in a native [int].  The representation
   used to be [int64]; on a 64-bit host the native int still spans
   ±4.6e18 ns (~146 years of virtual time), and being immediate it
   never boxes — [Clock.advance]'s [t.now <- ...] and every
   [add]/[scale] in the hot path were one heap allocation each under
   the boxed representation, which dominated the serving allocation
   profile.  [to_ns] keeps its [int64] signature so observation points
   pay the one box at the edge. *)
type time = int

let zero = 0

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let ns_f x = int_of_float (Float.round x)
let us_f x = ns_f (x *. 1e3)
let ms_f x = ns_f (x *. 1e6)

let to_ns t = Int64.of_int t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let add = ( + )

let sub a b = if a <= b then 0 else a - b

let diff a b = if a >= b then a - b else b - a

let scale t f = int_of_float (float_of_int t *. f)

let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b
let compare : int -> int -> int = Int.compare
let equal : int -> int -> bool = Int.equal

let ( + ) = add
let ( - ) = sub
let ( < ) (a : int) b = Stdlib.( < ) a b
let ( <= ) (a : int) b = Stdlib.( <= ) a b
let ( > ) (a : int) b = Stdlib.( > ) a b
let ( >= ) (a : int) b = Stdlib.( >= ) a b

let pp fmt t =
  let f = float_of_int t in
  if Stdlib.( < ) f 1e3 then Format.fprintf fmt "%.0fns" f
  else if Stdlib.( < ) f 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Stdlib.( < ) f 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t

let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_bytes fmt n =
  let f = float_of_int n in
  if Stdlib.( < ) f 1024. then Format.fprintf fmt "%dB" n
  else if Stdlib.( < ) f (1024. *. 1024.) then Format.fprintf fmt "%.0fKB" (f /. 1024.)
  else if Stdlib.( < ) f (1024. *. 1024. *. 1024.) then
    Format.fprintf fmt "%.0fMB" (f /. 1024. /. 1024.)
  else Format.fprintf fmt "%.2fGB" (f /. 1024. /. 1024. /. 1024.)

let bytes_to_string n = Format.asprintf "%a" pp_bytes n

let time_for_bytes ~bytes_per_sec n =
  if Stdlib.( <= ) n 0 then zero
  else ns_f (float_of_int n /. bytes_per_sec *. 1e9)

let gbit_per_sec g = g *. 1e9 /. 8.
let mb_per_sec m = m *. 1e6
