(* The host cost of one timed span: wall time and the whole program's
   allocation and collections, all domains included ([Gc.quick_stat],
   not the per-domain [Gc.minor_words]).  A metered span also runs the
   [Yardstick] reference job between chunks and reports its time at the
   reference speed. *)

type t = {
  span_s : float;  (** Wall time, reference jobs left out. *)
  scaled_s : float;  (** [span_s] at the reference speed; [span_s] when not metered. *)
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let run ~meter f =
  let g0 = Gc.quick_stat () in
  let v, span_s, scaled_s =
    if meter then
      let v, r = Yardstick.measure f in
      (v, r.Yardstick.raw_s, r.Yardstick.scaled_s)
    else
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let s = Unix.gettimeofday () -. t0 in
      (v, s, s)
  in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      span_s;
      scaled_s;
      alloc_words = words g1 -. words g0;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )
