(* The arithmetic that turns host-time totals into per-layer metrics:
   lookups into a [Sim.Hotspot] snapshot, shares, the unattributed
   residual and the Amdahl bound.  Pure, so the tests can check it on
   synthetic section lists, except for the byte counters at the end. *)

open Sim

(* Metric names as BENCHMARK.json accepts them: letters, digits, '_',
   '.' and '-', starting with a letter or a digit, at most 64 long. *)
let valid_name s =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n > 0 && n <= 64 && String.for_all ok s && s.[0] <> '_' && s.[0] <> '.' && s.[0] <> '-'

let find (entries : Hotspot.entry list) name =
  List.find_opt (fun (e : Hotspot.entry) -> String.equal e.Hotspot.hs_name name) entries

let section_ns entries name =
  match find entries name with Some e -> e.Hotspot.hs_total_ns | None -> 0.0

let section_count entries name =
  match find entries name with Some e -> e.Hotspot.hs_count | None -> 0

let section_words entries name =
  match find entries name with Some e -> Hotspot.entry_words e | None -> 0.0

(* [num / den], 0 when nothing was attempted: a ratio over an empty
   base is reported as 0, never as NaN. *)
let share num den = if den > 0.0 then num /. den else 0.0

(* What [span] leaves over after the disjoint [parts] that cover it. *)
let residual ~span parts = span -. List.fold_left ( +. ) 0.0 parts

(* Amdahl's bound on the speedup of [n] workers for a run whose serial
   share is [serial_frac]. *)
let amdahl ~serial_frac n =
  let s = Float.min 1.0 (Float.max 0.0 serial_frac) in
  1.0 /. (s +. ((1.0 -. s) /. float_of_int n))

let median = function
  | [] -> invalid_arg "Layers.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolated percentile of a small sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Layers.percentile: empty";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Bytes through each transport, counted by the benchmark's own calls
   while [Hotspot] is on.  Only the traced run turns it on, at pool
   width 1, so plain counters do. *)
let put_bytes = ref 0
let get_bytes = ref 0
let read_bytes = ref 0
let write_bytes = ref 0
let count r n = if Hotspot.enabled () then r := !r + n

let reset_bytes () = List.iter (fun r -> r := 0) [ put_bytes; get_bytes; read_bytes; write_bytes ]

(* Host ns per KiB of [bytes]. *)
let ns_per_kib ns bytes = share ns (float_of_int bytes /. 1024.0)
