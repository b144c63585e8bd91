(* Histogram registry plus process-wide gauges.  Histogram handles are
   names; the backing cells live in a registry resolved through
   domain-local storage, so [Par.with_shard] can route a parallel
   task's observations into a private shard (no locks on the hot path)
   and [merge_into] folds them back at a deterministic join point.
   A gauge is a high-watermark, whose value cannot depend on the order
   of its updates, so it is one process-wide cell that no shard holds.

   Aggregates (bucket counts, count, sum, min, max) are always exact.
   The raw-sample reservoir feeding percentile queries can be thinned
   1-in-k ([set_raw_sample_every]) so memory stays O(count / k) under
   10^5-request load; with k = 1 (the default) behaviour and floating
   point results are bit-identical to the unsampled registry.  While
   thinning is active every observation additionally feeds a
   deterministic t-digest, and percentile queries answer from that
   sketch — full-population estimates in O(1) memory — instead of the
   thinned reservoir or the coarse log2 buckets. *)

type histo_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_buckets : (int * int) list;
}

type histo = {
  buckets : int array;  (* 64 log2 buckets; index via [bucket_index] *)
  samples : Stats.t;  (* raw reservoir for percentiles; may be thinned *)
  mutable h_count : int;  (* also the reservoir offers, kept or not *)
  mutable h_sum : float;
  mutable h_min : float;  (* infinity when empty *)
  mutable h_max : float;  (* neg_infinity when empty *)
  mutable h_sketch : Sketch.Tdigest.t option;
      (* full-population digest, allocated on the first thinned
         observation; [None] at k = 1 so the default path never touches
         it *)
  mutable h_snap : histo_snapshot option;
      (* memoized snapshot, invalidated by any mutation — repeated
         exporter reads (a Prometheus scrape per soak snapshot line)
         cost one hashtable walk, not a percentile query per cell *)
}

type registry = {
  r_histograms : (string, histo) Hashtbl.t;
  mutable r_every : int;  (* keep 1 raw sample in r_every *)
  mutable r_phase : int;
}

type histogram = string
type gauge = float Atomic.t

let create_registry () = { r_histograms = Hashtbl.create 16; r_every = 1; r_phase = 0 }

let default = create_registry ()

let current_key = Domain.DLS.new_key create_registry
let () = Domain.DLS.set current_key default
let current () = Domain.DLS.get current_key
let set_current r = Domain.DLS.set current_key r

let set_raw_sample_every ?(seed = 0) every =
  if every < 1 then invalid_arg "Metrics.set_raw_sample_every: every must be >= 1";
  let r = current () in
  r.r_every <- every;
  r.r_phase <- ((seed mod every) + every) mod every

let histo_cell r name =
  match Hashtbl.find_opt r.r_histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          buckets = Array.make 64 0;
          samples = Stats.create ();
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          h_sketch = None;
          h_snap = None;
        }
      in
      Hashtbl.replace r.r_histograms name h;
      h

(* Prometheus-style dimensional names: [labels "x" ["ep","a"]] is
   [x{ep="a"}].  Keys are sorted so one label set always encodes to
   one name, making labelled series as deterministic as plain ones —
   every instrument is keyed by name, so the encoding works for
   histograms, gauges, [Stats.Counter]s and [Timeseries] series
   alike.  Exporters split at the first '{' to recover the base. *)
let labels name kvs =
  match kvs with
  | [] -> name
  | kvs ->
      let esc v =
        let buf = Buffer.create (String.length v) in
        String.iter
          (fun c ->
            match c with
            | '"' | '\\' ->
                Buffer.add_char buf '\\';
                Buffer.add_char buf c
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          v;
        Buffer.contents buf
      in
      let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
      let parts = List.map (fun (k, v) -> k ^ "=\"" ^ esc v ^ "\"") kvs in
      name ^ "{" ^ String.concat "," parts ^ "}"

let base_name name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Registration persists across [reset] so never-observed series still
   export (with zero counts). *)
let histogram name =
  ignore (histo_cell (current ()) name);
  name

(* Bucket 0 <-> v < 1, bucket i <-> 2^(i-1) <= v < 2^i, clamped at 63.
   For v >= 1 the bit length of floor v is the IEEE exponent minus the
   bias, plus one: exact at powers of two where float log2 is not, and
   read straight off the bits, so no int64 is boxed on the way (nan and
   infinity carry the maximal exponent and land in 63). *)
let bucket_index v =
  if v < 1.0 then 0
  else
    let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) in
    let i = (e land 0x7ff) - 1022 in
    if i > 63 then 63 else i

let bucket_bound i = 2.0 ** float_of_int i

(* One observation: exact aggregates unconditionally, reservoir offer
   through the registry's 1-in-k sampler. *)
let observe_cell r (cell : histo) v =
  cell.h_snap <- None;
  let i = bucket_index v in
  cell.buckets.(i) <- cell.buckets.(i) + 1;
  if r.r_every <= 1 || cell.h_count mod r.r_every = r.r_phase then
    Stats.add cell.samples v;
  cell.h_count <- cell.h_count + 1;
  cell.h_sum <- cell.h_sum +. v;
  if v < cell.h_min then cell.h_min <- v;
  if v > cell.h_max then cell.h_max <- v;
  if r.r_every > 1 then begin
    let d =
      match cell.h_sketch with
      | Some d -> d
      | None ->
          let d = Sketch.Tdigest.create () in
          cell.h_sketch <- Some d;
          d
    in
    Sketch.Tdigest.add d v
  end

let observe h v =
  let r = current () in
  observe_cell r (histo_cell r h) v

let observe_time h d = observe h (Int64.to_float (Units.to_ns d))

let histogram_count h = (histo_cell (current ()) h).h_count

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let gauges_mu = Mutex.create ()

let gauge name =
  Mutex.protect gauges_mu (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = Atomic.make 0.0 in
          Hashtbl.replace gauges name g;
          g)

(* Compare-and-set against the boxed value just read, so a raise from
   one domain is never lost to a concurrent raise from another. *)
let rec max_gauge g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then max_gauge g v

let gauge_value = Atomic.get

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : histo_snapshot list;
}

let snapshot_histogram name (h : histo) =
  match h.h_snap with
  | Some s -> s
  | None ->
  let empty = h.h_count = 0 in
  (* The reservoir answers while it is lossless.  Once it drops a
     sample the digest does: every observation made while thinning
     feeds it. *)
  let lossless = Stats.count h.samples = h.h_count in
  (* Query a copy: a percentile query flushes the digest it reads, and
     the live one must not depend on when earlier snapshots ran. *)
  let digest =
    match h.h_sketch with
    | Some d when not lossless -> Some (Sketch.Tdigest.copy d)
    | _ -> None
  in
  let pct p =
    if empty then 0.0
    else
      match digest with
      | Some d -> Sketch.Tdigest.percentile d p
      | None -> Stats.percentile h.samples p
  in
  let buckets = ref [] in
  for i = 63 downto 0 do
    if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
  done;
  let s =
    {
      hs_name = name;
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = (if empty then 0.0 else h.h_min);
      hs_max = (if empty then 0.0 else h.h_max);
      hs_p50 = pct 50.0;
      hs_p90 = pct 90.0;
      hs_p99 = pct 99.0;
      hs_buckets = !buckets;
    }
  in
  h.h_snap <- Some s;
  s

let snapshot () =
  let r = current () in
  let gs =
    Mutex.protect gauges_mu (fun () ->
        Hashtbl.fold (fun n g acc -> (n, Atomic.get g) :: acc) gauges [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs =
    Hashtbl.fold (fun n h acc -> snapshot_histogram n h :: acc) r.r_histograms []
    |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)
  in
  { snap_counters = Stats.counters (); snap_gauges = gs; snap_histograms = hs }

let clear_cell (h : histo) =
  Array.fill h.buckets 0 64 0;
  Stats.clear h.samples;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity;
  (match h.h_sketch with Some d -> Sketch.Tdigest.clear d | None -> ());
  h.h_snap <- None

let reset () =
  let r = current () in
  Hashtbl.iter (fun _ h -> clear_cell h) r.r_histograms;
  Mutex.protect gauges_mu (fun () ->
      Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges);
  Stats.reset_counters ()

(* Scrub a registry in place for reuse as a fresh shard: histogram
   cells are cleared but *kept* (their bucket arrays, reservoirs and
   digests are the expensive part of a shard — reusing them is the
   point).  Sampling state returns to the [create_registry] default. *)
let reset_registry (r : registry) =
  Hashtbl.iter (fun _ h -> clear_cell h) r.r_histograms;
  r.r_every <- 1;
  r.r_phase <- 0

(* Fold a shard registry into the current one.  Each series merges
   into its own destination cell, so the series may be visited in any
   order: a cell's contents depend only on its own sample sequence,
   which is fixed by the order of [merge_into] calls.  A shard is
   replayed sample by sample, which keeps float accumulation order —
   and therefore sums and percentile views — bit-identical to observing
   directly, while the destination applies its own 1-in-k reservoir
   thinning.  A thinning shard could drop samples it would then fail to
   replay, so it is rejected before anything merges.  A cell with
   nothing observed is skipped, so a recycled shard carrying cleared
   cells for series from earlier requests merges byte-identically to a
   fresh shard. *)
let merge_into (src : registry) =
  if src.r_every > 1 then invalid_arg "Metrics.merge_into: shard reservoir is thinned";
  let dst = current () in
  Hashtbl.iter
    (fun n (h : histo) ->
      if h.h_count > 0 then begin
        let cell = histo_cell dst n in
        Stats.iter (fun v -> observe_cell dst cell v) h.samples
      end)
    src.r_histograms
