(* The splitmix64 state lives unboxed in an 8-byte cell: a mutable
   [int64] field would box a fresh value on every draw.  [mix] and
   [next_int64] are inlined, so a draw consumed as an int, float, bool
   or byte allocates nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] next_int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = of_state (next_int64 t)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, scaled into [0, 1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = Stdlib.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* The state stays in a local for the loop and is written back once.
   Each byte is [int t 256]: bits 2..9 of the draw, taken with a shift
   and a mask instead of the division. *)
let bytes t n =
  let b = Bytes.create n in
  let s = ref (get_state t 0) in
  for i = 0 to n - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.unsafe_set b i (Char.unsafe_chr ((Int64.to_int (mix !s) lsr 2) land 255))
  done;
  set_state t 0 !s;
  b
