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

let to_list t = Array.to_list (Array.sub t.samples 0 t.len)

(* --- Named monotonic counters ------------------------------------- *)

(* A counter handle is just its name; the value cell lives in a
   registry resolved through domain-local storage at every bump.  That
   indirection is what lets [Par.with_shard] route a parallel task's
   counts into a private shard with no locks on the hot path, then
   fold them back into the main registry in submission order. *)
module Counter = struct
  type t = string

  type registry = (string, int ref) Hashtbl.t

  let create_registry () : registry = Hashtbl.create 32

  let default : registry = create_registry ()

  let current_key = Domain.DLS.new_key create_registry
  let () = Domain.DLS.set current_key default
  let current () = Domain.DLS.get current_key
  let set_current r = Domain.DLS.set current_key r

  let cell (r : registry) name =
    match Hashtbl.find_opt r name with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace r name c;
        c

  (* Pre-register in [default] so never-bumped counters still show up
     (as zeros) in exports.  All [make] calls are module-init, i.e. on
     the main domain. *)
  let make name =
    ignore (cell default name);
    name

  let incr c = Stdlib.incr (cell (current ()) c)

  let add c n =
    let cl = cell (current ()) c in
    cl := !cl + n

  let value c = !(cell (current ()) c)
  let name c = c
  let reset c = cell (current ()) c := 0

  (* Cells are kept (recycled shards reuse them); [merge_counters]
     skips zero counts, so a scrubbed registry merges identically to a
     fresh one. *)
  let reset_registry (r : registry) = Hashtbl.iter (fun _ c -> c := 0) r
end

let counter_value name =
  match Hashtbl.find_opt (Counter.current ()) name with
  | Some c -> !c
  | None -> 0

let counters () =
  Hashtbl.fold (fun n c acc -> (n, !c) :: acc) (Counter.current ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_counters () = Hashtbl.iter (fun _ c -> c := 0) (Counter.current ())

(* Fold a shard registry into the current one.  Sums are
   order-insensitive, so this is safe at any deterministic join. *)
let merge_counters (src : Counter.registry) =
  let dst = Counter.current () in
  Hashtbl.fold (fun n c acc -> (n, !c) :: acc) src []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (n, v) ->
         if v <> 0 then
           let cl = Counter.cell dst n in
           cl := !cl + v)
