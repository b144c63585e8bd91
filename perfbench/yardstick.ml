(* A fixed reference job, timed next to the workload so that host time
   can be stated at one reference host speed.

   The host this benchmark runs on changes speed by tens of percent from
   one stretch of seconds to the next (other tenants share its cores),
   and that moves every host time alike.  A meter cuts a timed span into
   chunks of about [every_ns], runs the reference job between chunks,
   and scales each chunk by [nominal_ns] over the reference times around
   it.  What it returns is the span's host time at the reference speed,
   the reference jobs themselves left out.

   Which job tracks the host is an empirical question.  On the 2-vCPU
   VM this was tuned on, a pointer chase through memory hardly slowed
   when the workload did; lookups in a string-keyed [Hashtbl] slowed
   with it, and cut the spread of per-repetition serve times from 13%
   to 2.5% of their mean.  So the job looks up [lookups] keys in a
   table of [keys] strings.  It allocates nothing; its table stays on
   the heap (about 4 MiB) for the whole run.  Only the main domain
   ticks: worker domains never run the job. *)

let keys = 1 lsl 16
let lookups = 1 lsl 12

(* A round figure near the job's time on that VM in a quiet second
   (about 1.08 ms).  Fixed, so readings compare across runs. *)
let nominal_ns = 1.0e6

(* Keys in a scattered order, so consecutive lookups hit unrelated
   buckets. *)
let table =
  lazy
    (let names = Array.init keys (fun i -> "key-" ^ string_of_int (i * 7919)) in
     let h = Hashtbl.create keys in
     Array.iteri (fun i k -> Hashtbl.replace h k i) names;
     (names, h))

let job () =
  let names, h = Lazy.force table in
  let acc = ref 0 in
  for i = 1 to lookups do
    acc := !acc + Hashtbl.find h (Array.unsafe_get names (i * 40503 land (keys - 1)))
  done;
  ignore (Sys.opaque_identity !acc)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let reference_ns () =
  let t0 = now_ns () in
  job ();
  now_ns () -. t0

type meter = {
  every_ns : float;
  mutable last : float;  (** When the last reference job ended. *)
  mutable chunks : float list;  (** Chunk host ns, newest first. *)
  mutable refs : float list;
      (** Reference job ns, newest first; one more than [chunks], since
          a job runs before the first chunk and after each. *)
}

let current : meter option ref = ref None

let close m =
  m.chunks <- (now_ns () -. m.last) :: m.chunks;
  m.refs <- reference_ns () :: m.refs;
  m.last <- now_ns ()

(* Called from the workload's own loops: ends the chunk once it is
   [every_ns] long.  Without an open meter, or off the main domain, it
   does nothing. *)
let tick () =
  match !current with
  | Some m when Domain.is_main_domain () && now_ns () -. m.last >= m.every_ns -> close m
  | Some _ | None -> ()

let median_of a lo hi =
  let s = Array.sub a lo (hi - lo + 1) in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

type reading = {
  raw_s : float;  (** Host time of the span without the reference jobs. *)
  scaled_s : float;  (** The same at the reference speed. *)
  jobs : int;
}

(* Chunk [i] ran between jobs [i] and [i + 1]; it is scaled by the
   median of jobs [i - 1] to [i + 2], so one job slowed by an interrupt
   does not skew it. *)
let reading chunks refs =
  let n = Array.length refs in
  let raw = ref 0.0 and scaled = ref 0.0 in
  Array.iteri
    (fun i c ->
      let r = median_of refs (Stdlib.max 0 (i - 1)) (Stdlib.min (n - 1) (i + 2)) in
      raw := !raw +. c;
      scaled := !scaled +. (c *. nominal_ns /. r))
    chunks;
  { raw_s = !raw /. 1e9; scaled_s = !scaled /. 1e9; jobs = n }

(* [measure ~every_ns f] runs [f] under a meter and returns its result
   with the reading.  Meters do not nest. *)
let measure ?(every_ns = 20e6) f =
  if Option.is_some !current then invalid_arg "Yardstick.measure: a meter is already open";
  ignore (Lazy.force table);
  let m = { every_ns; last = 0.0; chunks = []; refs = [] } in
  m.refs <- [ reference_ns () ];
  m.last <- now_ns ();
  current := Some m;
  let v = Fun.protect ~finally:(fun () -> current := None) f in
  close m;
  (v, reading (Array.of_list (List.rev m.chunks)) (Array.of_list (List.rev m.refs)))
