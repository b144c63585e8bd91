(* The merging t-digest as it was before its flush sorted the buffer in
   place: an index array sorted through a closure ([Float.compare],
   ties by insertion index) and fresh merge arrays on every flush.  It
   is the reference the suite checks [Sim.Sketch.Tdigest] against: the
   two must give bit-identical estimates for any call sequence. *)

let buf_cap = 256

type t = {
  compression : float;
  mutable means : float array; (* sorted, first [n] entries live *)
  mutable weights : float array;
  mutable n : int;
  mutable total : float; (* weight held in centroids *)
  buf_m : float array; (* pending unmerged points *)
  buf_w : float array;
  mutable buf_len : int;
  mutable buf_total : float;
  mutable minv : float;
  mutable maxv : float;
}

let create ?(compression = 100.0) () =
  if not (compression >= 10.0) then
    invalid_arg "Tdigest_ref.create: compression must be >= 10";
  {
    compression;
    means = Array.make 16 0.0;
    weights = Array.make 16 0.0;
    n = 0;
    total = 0.0;
    buf_m = Array.make buf_cap 0.0;
    buf_w = Array.make buf_cap 0.0;
    buf_len = 0;
    buf_total = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

let count t = t.total +. t.buf_total

(* Merge the sorted centroid prefix with the (sorted-on-demand)
   buffer, then compress: scan in ascending-mean order, greedily
   fusing neighbours while the fused weight stays under the k1-style
   bound 4 * total * q * (1-q) / compression at the fused midpoint.
   Every step is order-determined float arithmetic — no randomness,
   no hashing. *)
let flush t =
  if t.buf_len > 0 then begin
    (* Sort buffer points by mean.  Indirect sort keeps (mean,
       weight) pairs together; ties resolve by original insertion
       index, which is itself deterministic. *)
    let idx = Array.init t.buf_len (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Float.compare t.buf_m.(a) t.buf_m.(b) in
        if c <> 0 then c else compare a b)
      idx;
    let m = t.n + t.buf_len in
    let tm = Array.make m 0.0 and tw = Array.make m 0.0 in
    (* Two-way merge of sorted centroids and sorted buffer. *)
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < t.n || !j < t.buf_len do
      let take_centroid =
        !j >= t.buf_len
        || (!i < t.n && t.means.(!i) <= t.buf_m.(idx.(!j)))
      in
      if take_centroid then begin
        tm.(!k) <- t.means.(!i);
        tw.(!k) <- t.weights.(!i);
        incr i
      end
      else begin
        tm.(!k) <- t.buf_m.(idx.(!j));
        tw.(!k) <- t.buf_w.(idx.(!j));
        incr j
      end;
      incr k
    done;
    let total = t.total +. t.buf_total in
    (* Compress in place over (tm, tw). *)
    let out = ref 0 and done_w = ref 0.0 in
    let cur_m = ref tm.(0) and cur_w = ref tw.(0) in
    for x = 1 to m - 1 do
      let w = tw.(x) in
      let fused = !cur_w +. w in
      let q_mid = (!done_w +. (fused /. 2.0)) /. total in
      let limit = 4.0 *. total *. q_mid *. (1.0 -. q_mid) /. t.compression in
      if fused <= Float.max 1.0 limit then begin
        (* Fuse into the running centroid (weighted mean update). *)
        cur_m := !cur_m +. (w /. fused *. (tm.(x) -. !cur_m));
        cur_w := fused
      end
      else begin
        tm.(!out) <- !cur_m;
        tw.(!out) <- !cur_w;
        done_w := !done_w +. !cur_w;
        incr out;
        cur_m := tm.(x);
        cur_w := w
      end
    done;
    tm.(!out) <- !cur_m;
    tw.(!out) <- !cur_w;
    incr out;
    let n = !out in
    if Array.length t.means < n then begin
      t.means <- Array.make (2 * n) 0.0;
      t.weights <- Array.make (2 * n) 0.0
    end;
    Array.blit tm 0 t.means 0 n;
    Array.blit tw 0 t.weights 0 n;
    t.n <- n;
    t.total <- total;
    t.buf_len <- 0;
    t.buf_total <- 0.0
  end

let add ?(weight = 1.0) t x =
  if not (weight > 0.0) then invalid_arg "Tdigest_ref.add: weight <= 0";
  if Float.is_nan x then invalid_arg "Tdigest_ref.add: nan";
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x;
  t.buf_m.(t.buf_len) <- x;
  t.buf_w.(t.buf_len) <- weight;
  t.buf_len <- t.buf_len + 1;
  t.buf_total <- t.buf_total +. weight;
  if t.buf_len = buf_cap then flush t

let quantile t q =
  flush t;
  if t.n = 0 then nan
  else if t.n = 1 then t.means.(0)
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. t.total in
    (* Centroid i's mass is centred at cum_i + w_i / 2. *)
    if target <= t.weights.(0) /. 2.0 then begin
      (* Below the first midpoint: interpolate from the observed min. *)
      let half = t.weights.(0) /. 2.0 in
      if half <= 0.0 then t.minv
      else t.minv +. (target /. half *. (t.means.(0) -. t.minv))
    end
    else begin
      let last = t.n - 1 in
      let tail_mid = t.total -. (t.weights.(last) /. 2.0) in
      if target >= tail_mid then begin
        let half = t.weights.(last) /. 2.0 in
        if half <= 0.0 then t.maxv
        else
          t.means.(last)
          +. ((target -. tail_mid) /. half *. (t.maxv -. t.means.(last)))
      end
      else begin
        (* Find consecutive midpoints bracketing the target. *)
        let cum = ref 0.0 and i = ref 0 in
        let res = ref nan in
        (try
           while !i < last do
             let mid_i = !cum +. (t.weights.(!i) /. 2.0) in
             let mid_j =
               !cum +. t.weights.(!i) +. (t.weights.(!i + 1) /. 2.0)
             in
             if target < mid_j then begin
               let span = mid_j -. mid_i in
               let frac = if span <= 0.0 then 0.0 else (target -. mid_i) /. span in
               res :=
                 t.means.(!i) +. (frac *. (t.means.(!i + 1) -. t.means.(!i)));
               raise Exit
             end;
             cum := !cum +. t.weights.(!i);
             incr i
           done;
           res := t.means.(last)
         with Exit -> ());
        (* Clamp to the observed range: interpolation can otherwise
           drift past min/max on tiny populations. *)
        Float.max t.minv (Float.min t.maxv !res)
      end
    end
  end

let percentile t p = quantile t (p /. 100.0)

let merge_into ~src ~dst =
  flush src;
  for i = 0 to src.n - 1 do
    add ~weight:src.weights.(i) dst src.means.(i)
  done;
  if src.minv < dst.minv then dst.minv <- src.minv;
  if src.maxv > dst.maxv then dst.maxv <- src.maxv

let copy t =
  {
    t with
    means = Array.copy t.means;
    weights = Array.copy t.weights;
    buf_m = Array.copy t.buf_m;
    buf_w = Array.copy t.buf_w;
  }

let clear t =
  t.n <- 0;
  t.total <- 0.0;
  t.buf_len <- 0;
  t.buf_total <- 0.0;
  t.minv <- infinity;
  t.maxv <- neg_infinity
