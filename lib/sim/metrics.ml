(* Histogram registry plus process-wide gauges.  A histogram handle is
   a dense id: [histogram] interns the name once, in a mutex-guarded
   table any domain may call, and every observation indexes the current
   registry's cell array by id, hashing no string.  The current sink is
   domain-local: the process default registry on the main domain, or a
   [Par] shard's log while one is installed, so a parallel task's
   observations go to a private (id, value) log with no locks, and
   [replay] feeds them back, in order, at a deterministic join point.
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
  h_agg : float array;
      (* [| sum; min; max |] (min infinity and max neg_infinity when
         empty), in a flat float array so an observation boxes
         nothing *)
  mutable h_sketch : Sketch.Tdigest.t option;
      (* full-population digest, allocated on the first thinned
         observation; [None] at k = 1 so the default path never touches
         it *)
}

(* Cells by histogram id: [absent] marks an id this registry has not
   registered. *)
type registry = {
  mutable r_cells : histo array;
  mutable r_every : int;  (* keep 1 raw sample in r_every *)
  mutable r_phase : int;
}

(* A shard's observations in order: parallel (id, value) arrays whose
   first [l_len] entries are live. *)
type log = { mutable l_ids : int array; mutable l_vals : float array; mutable l_len : int }

type sink = Registry of registry | Log of log

type histogram = int
type gauge = float Atomic.t

(* --- Interned names ------------------------------------------------ *)

let intern_mu = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 64 "")  (* by id; read under [intern_mu] *)

let intern name =
  Mutex.protect intern_mu (fun () ->
      match Hashtbl.find ids name with
      | id -> id
      | exception Not_found ->
          let id = Hashtbl.length ids in
          if id = Array.length !names then begin
            let grown = Array.make (2 * id) "" in
            Array.blit !names 0 grown 0 id;
            names := grown
          end;
          !names.(id) <- name;
          Hashtbl.replace ids name id;
          id)

let name_of id = Mutex.protect intern_mu (fun () -> !names.(id))

(* --- Registries, logs and the current sink ------------------------- *)

let new_cell () =
  {
    buckets = Array.make 64 0;
    samples = Stats.create ();
    h_count = 0;
    h_agg = [| 0.0; infinity; neg_infinity |];
    h_sketch = None;
  }

let absent = new_cell ()

let create_registry () = { r_cells = [||]; r_every = 1; r_phase = 0 }
let create_log () = { l_ids = [||]; l_vals = [||]; l_len = 0 }
let clear_log l = l.l_len <- 0

let default = Registry (create_registry ())

let current_key = Domain.DLS.new_key (fun () -> Registry (create_registry ()))
let () = Domain.DLS.set current_key default
let current () = Domain.DLS.get current_key
let set_current s = Domain.DLS.set current_key s

let set_raw_sample_every ?(seed = 0) every =
  if every < 1 then invalid_arg "Metrics.set_raw_sample_every: every must be >= 1";
  match current () with
  | Registry r ->
      r.r_every <- every;
      r.r_phase <- ((seed mod every) + every) mod every
  | Log _ -> invalid_arg "Metrics.set_raw_sample_every: a shard log cannot be thinned"

(* The cell for [id] in [r], registered on first use. *)
let cell r id =
  let cells = r.r_cells in
  if id < Array.length cells && cells.(id) != absent then cells.(id)
  else begin
    if id >= Array.length cells then begin
      let grown = Array.make (Stdlib.max (id + 1) (2 * Array.length cells)) absent in
      Array.blit cells 0 grown 0 (Array.length cells);
      r.r_cells <- grown
    end;
    let h = new_cell () in
    r.r_cells.(id) <- h;
    h
  end

let log_append l id v =
  let n = l.l_len in
  if n = Array.length l.l_ids then begin
    let cap = Stdlib.max 16 (2 * n) in
    let ids' = Array.make cap 0 and vals' = Array.make cap 0.0 in
    Array.blit l.l_ids 0 ids' 0 n;
    Array.blit l.l_vals 0 vals' 0 n;
    l.l_ids <- ids';
    l.l_vals <- vals'
  end;
  l.l_ids.(n) <- id;
  l.l_vals.(n) <- v;
  l.l_len <- n + 1

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
   export (with zero counts).  Under a log the name is only interned:
   a replay registers what the log observed, as a merge always did. *)
let histogram name =
  let id = intern name in
  (match current () with Registry r -> ignore (cell r id) | Log _ -> ());
  id

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
  let i = bucket_index v in
  cell.buckets.(i) <- cell.buckets.(i) + 1;
  if r.r_every <= 1 || cell.h_count mod r.r_every = r.r_phase then
    Stats.add cell.samples v;
  cell.h_count <- cell.h_count + 1;
  let agg = cell.h_agg in
  agg.(0) <- agg.(0) +. v;
  if v < agg.(1) then agg.(1) <- v;
  if v > agg.(2) then agg.(2) <- v;
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
  match current () with
  | Registry r -> observe_cell r (cell r h) v
  | Log l -> log_append l h v

let observe_time h d = observe h (Int64.to_float (Units.to_ns d))

let replay_into r l =
  for i = 0 to l.l_len - 1 do
    let id = l.l_ids.(i) in
    observe_cell r (cell r id) l.l_vals.(i)
  done

(* Feed a shard's log into the current sink in observation order, so
   every series sees its samples in the order the shard saw them: sums,
   reservoirs (the destination applies its own 1-in-k thinning) and
   digests come out bit-identical to observing directly.  Into a log,
   the entries are appended. *)
let replay l =
  match current () with
  | Registry r -> replay_into r l
  | Log dst ->
      for i = 0 to l.l_len - 1 do
        log_append dst l.l_ids.(i) l.l_vals.(i)
      done

(* What the current sink holds as a registry: itself, or a log
   replayed into a fresh one. *)
let current_registry () =
  match current () with
  | Registry r -> r
  | Log l ->
      let r = create_registry () in
      replay_into r l;
      r

let histogram_count h =
  let r = current_registry () in
  if h < Array.length r.r_cells then r.r_cells.(h).h_count else 0

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
  {
    hs_name = name;
    hs_count = h.h_count;
    hs_sum = h.h_agg.(0);
    hs_min = (if empty then 0.0 else h.h_agg.(1));
    hs_max = (if empty then 0.0 else h.h_agg.(2));
    hs_p50 = pct 50.0;
    hs_p90 = pct 90.0;
    hs_p99 = pct 99.0;
    hs_buckets = !buckets;
  }

let snapshot () =
  let r = current_registry () in
  let gs =
    Mutex.protect gauges_mu (fun () ->
        Hashtbl.fold (fun n g acc -> (n, Atomic.get g) :: acc) gauges [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs = ref [] in
  Array.iteri
    (fun id h -> if h != absent then hs := snapshot_histogram (name_of id) h :: !hs)
    r.r_cells;
  let hs = List.sort (fun a b -> String.compare a.hs_name b.hs_name) !hs in
  { snap_counters = Stats.counters (); snap_gauges = gs; snap_histograms = hs }

let clear_cell (h : histo) =
  Array.fill h.buckets 0 64 0;
  Stats.clear h.samples;
  h.h_count <- 0;
  h.h_agg.(0) <- 0.0;
  h.h_agg.(1) <- infinity;
  h.h_agg.(2) <- neg_infinity;
  match h.h_sketch with Some d -> Sketch.Tdigest.clear d | None -> ()

let reset () =
  (match current () with
  | Registry r -> Array.iter (fun h -> if h != absent then clear_cell h) r.r_cells
  | Log l -> clear_log l);
  Mutex.protect gauges_mu (fun () ->
      Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges);
  Stats.reset_counters ()
