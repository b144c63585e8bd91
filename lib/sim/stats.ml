(* A collection is either exact (every sample retained; percentiles
   from a cached sorted view) or sketched: aggregates maintained
   incrementally, percentiles answered by a t-digest, no raw samples
   kept.  Sketched mode is what lets a 10^6-request serve report p50/p99
   in O(1) memory. *)

type sketched = {
  digest : Sketch.Tdigest.t;
  mutable seen : int;
  mutable s_sum : float;
  mutable s_min : float;
  mutable s_max : float;
  mutable s_sumsq : float;
}

type mode = Exact | Sk of sketched

type t = {
  mutable samples : float array;
  mutable len : int;
  mutable view : float array;
      (** Cached sorted copy of the live prefix; valid iff [view_ok].
          Percentile queries sort once after a batch of adds instead of
          O(n log n) per query, and never disturb insertion order. *)
  mutable view_ok : bool;
  mode : mode;
}

let create () =
  { samples = Array.make 16 0.0; len = 0; view = [||]; view_ok = false; mode = Exact }

let sketched () =
  {
    samples = [||];
    len = 0;
    view = [||];
    view_ok = false;
    mode =
      Sk
        {
          digest = Sketch.Tdigest.create ();
          seen = 0;
          s_sum = 0.0;
          s_min = infinity;
          s_max = neg_infinity;
          s_sumsq = 0.0;
        };
  }

let push t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.view_ok <- false

let add t x =
  match t.mode with
  | Exact -> push t x
  | Sk s ->
      s.s_sum <- s.s_sum +. x;
      if x < s.s_min then s.s_min <- x;
      if x > s.s_max then s.s_max <- x;
      s.s_sumsq <- s.s_sumsq +. (x *. x);
      Sketch.Tdigest.add s.digest x;
      s.seen <- s.seen + 1

let add_time t d = add t (Int64.to_float (Units.to_ns d))

let count t = match t.mode with Exact -> t.len | Sk s -> s.seen
let is_empty t = count t = 0

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let sum t = match t.mode with Exact -> fold ( +. ) 0.0 t | Sk s -> s.s_sum

let mean t =
  let n = count t in
  if n = 0 then 0.0 else sum t /. float_of_int n

let min t = match t.mode with Exact -> fold Stdlib.min infinity t | Sk s -> s.s_min
let max t =
  match t.mode with Exact -> fold Stdlib.max neg_infinity t | Sk s -> s.s_max

let stddev t =
  match t.mode with
  | Exact ->
      if t.len < 2 then 0.0
      else begin
        let m = mean t in
        let ss = fold (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 t in
        sqrt (ss /. float_of_int (t.len - 1))
      end
  | Sk s ->
      if s.seen < 2 then 0.0
      else begin
        let n = float_of_int s.seen in
        let m = s.s_sum /. n in
        let ss = Float.max 0.0 (s.s_sumsq -. (n *. m *. m)) in
        sqrt (ss /. (n -. 1.0))
      end

let sorted_view t =
  if not t.view_ok then begin
    t.view <- Array.sub t.samples 0 t.len;
    Array.sort Float.compare t.view;
    t.view_ok <- true
  end;
  t.view

let percentile t p =
  if is_empty t then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match t.mode with
  | Sk s ->
      (* Query a copy: compressing the live buffer here would make later
         estimates depend on when earlier ones were read. *)
      Sketch.Tdigest.percentile (Sketch.Tdigest.copy s.digest) p
  | Exact ->
      let view = sorted_view t in
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then view.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        view.(lo) +. (frac *. (view.(hi) -. view.(lo)))
      end

let p50 t = percentile t 50.0
let p90 t = percentile t 90.0
let p99 t = percentile t 99.0

let percentile_time t p = Units.ns_f (percentile t p)
let mean_time t = Units.ns_f (mean t)

let clear t =
  t.len <- 0;
  t.view_ok <- false;
  match t.mode with
  | Exact -> ()
  | Sk s ->
      s.seen <- 0;
      s.s_sum <- 0.0;
      s.s_min <- infinity;
      s.s_max <- neg_infinity;
      s.s_sumsq <- 0.0;
      Sketch.Tdigest.clear s.digest

let iter f t =
  for i = 0 to t.len - 1 do
    f t.samples.(i)
  done

(* --- Named monotonic counters ------------------------------------- *)

(* A counter is a sum, so its value cannot depend on the order of its
   bumps: one process-wide atomic cell per name serves every domain,
   shard or not, with no merge.  The name table is only touched by
   [make] and the readers below, never on a bump. *)
module Counter = struct
  type t = int Atomic.t

  let table : (string, t) Hashtbl.t = Hashtbl.create 32
  let table_mu = Mutex.create ()

  let make name =
    Mutex.protect table_mu (fun () ->
        match Hashtbl.find_opt table name with
        | Some c -> c
        | None ->
            let c = Atomic.make 0 in
            Hashtbl.replace table name c;
            c)

  let incr = Atomic.incr
  let add c n = ignore (Atomic.fetch_and_add c n)
end

let counter_value name =
  Mutex.protect Counter.table_mu (fun () ->
      match Hashtbl.find_opt Counter.table name with
      | Some c -> Atomic.get c
      | None -> 0)

let counters () =
  Mutex.protect Counter.table_mu (fun () ->
      Hashtbl.fold (fun n c acc -> (n, Atomic.get c) :: acc) Counter.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_counters () =
  Mutex.protect Counter.table_mu (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) Counter.table)
