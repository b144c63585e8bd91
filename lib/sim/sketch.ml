(* A deterministic merging t-digest (Dunning & Ertl).  It draws no
   randomness and is a pure function of the add-call sequence, so every
   estimate it produces is bit-identical across hosts and domain
   counts. *)

module Tdigest = struct
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
    mutable scr_m : float array;
        (* flush scratch, at least [n + buf_len] long once a flush
           starts: the buffer sort's spill space, then the merged
           centroids, which it swaps with [means]/[weights] *)
    mutable scr_w : float array;
  }

  let create ?(compression = 100.0) () =
    if not (compression >= 10.0) then
      invalid_arg "Sketch.Tdigest.create: compression must be >= 10";
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
      scr_m = [||];
      scr_w = [||];
    }

  let count t = t.total +. t.buf_total

  (* Stable in-place sort of the buffer's (mean, weight) pairs by mean:
     insertion sort on short runs, merging runs through the scratch
     arrays above that.  Only a strictly smaller mean moves ahead, so
     equal means keep insertion order, and -0.0 and 0.0 count as equal
     (as under [Float.compare]). *)
  let insertion_sort (m : float array) (w : float array) lo hi =
    for i = lo + 1 to hi - 1 do
      let x = m.(i) and xw = w.(i) in
      let j = ref (i - 1) in
      while !j >= lo && m.(!j) > x do
        m.(!j + 1) <- m.(!j);
        w.(!j + 1) <- w.(!j);
        decr j
      done;
      m.(!j + 1) <- x;
      w.(!j + 1) <- xw
    done

  (* Merge the sorted runs [lo, mid) and [mid, hi): the left run is
     spilled to scratch and merged back, taking the right run's head
     only when it is strictly smaller. *)
  let merge_runs t lo mid hi =
    let m = t.buf_m and w = t.buf_w and sm = t.scr_m and sw = t.scr_w in
    let nl = mid - lo in
    Array.blit m lo sm 0 nl;
    Array.blit w lo sw 0 nl;
    let i = ref 0 and j = ref mid and k = ref lo in
    while !i < nl && !j < hi do
      if m.(!j) < sm.(!i) then begin
        m.(!k) <- m.(!j);
        w.(!k) <- w.(!j);
        incr j
      end
      else begin
        m.(!k) <- sm.(!i);
        w.(!k) <- sw.(!i);
        incr i
      end;
      incr k
    done;
    (* A right-run remainder is already in place. *)
    Array.blit sm !i m !k (nl - !i);
    Array.blit sw !i w !k (nl - !i)

  let rec sort_buf t lo hi =
    if hi - lo <= 16 then insertion_sort t.buf_m t.buf_w lo hi
    else begin
      let mid = (lo + hi) / 2 in
      sort_buf t lo mid;
      sort_buf t mid hi;
      if t.buf_m.(mid - 1) > t.buf_m.(mid) then merge_runs t lo mid hi
    end

  (* Merge the sorted centroid prefix with the sorted buffer, then
     compress: scan in ascending-mean order, greedily fusing neighbours
     while the fused weight stays under the k1-style bound
     4 * total * q * (1-q) / compression at the fused midpoint.  Every
     step is order-determined float arithmetic — no randomness, no
     hashing — and all of it runs in arrays the digest keeps, so a
     flush allocates only when the centroid count outgrows them. *)
  let flush t =
    if t.buf_len > 0 then begin
      let m = t.n + t.buf_len in
      if Array.length t.scr_m < m then begin
        t.scr_m <- Array.make (2 * m) 0.0;
        t.scr_w <- Array.make (2 * m) 0.0
      end;
      sort_buf t 0 t.buf_len;
      let tm = t.scr_m and tw = t.scr_w in
      (* Two-way merge of sorted centroids and sorted buffer; a
         centroid goes first on equal means. *)
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < t.n || !j < t.buf_len do
        let take_centroid =
          !j >= t.buf_len || (!i < t.n && t.means.(!i) <= t.buf_m.(!j))
        in
        if take_centroid then begin
          tm.(!k) <- t.means.(!i);
          tw.(!k) <- t.weights.(!i);
          incr i
        end
        else begin
          tm.(!k) <- t.buf_m.(!j);
          tw.(!k) <- t.buf_w.(!j);
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
      (* The merged centroids become the digest's; the old arrays are
         the next flush's scratch. *)
      t.scr_m <- t.means;
      t.scr_w <- t.weights;
      t.means <- tm;
      t.weights <- tw;
      t.n <- !out;
      t.total <- total;
      t.buf_len <- 0;
      t.buf_total <- 0.0
    end

  let add ?(weight = 1.0) t x =
    if not (weight > 0.0) then invalid_arg "Sketch.Tdigest.add: weight <= 0";
    if Float.is_nan x then invalid_arg "Sketch.Tdigest.add: nan";
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
      scr_m = [||];
      scr_w = [||];
    }

  let clear t =
    t.n <- 0;
    t.total <- 0.0;
    t.buf_len <- 0;
    t.buf_total <- 0.0;
    t.minv <- infinity;
    t.maxv <- neg_infinity
end
