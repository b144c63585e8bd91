open Sim

(* --- Chrome trace_event export ------------------------------------ *)

(* Root ancestor of each span, memoized: the export uses it as [tid] so
   each workflow / request gets its own track in the viewer. *)
let root_table collector =
  let tbl = Hashtbl.create 64 in
  let rec root_of (sp : Span.span) =
    match Hashtbl.find_opt tbl sp.Span.sp_id with
    | Some r -> r
    | None ->
        let r =
          if sp.Span.sp_parent = Span.none then sp.Span.sp_id
          else
            match Span.find collector sp.Span.sp_parent with
            | Some p -> root_of p
            | None -> sp.Span.sp_id
        in
        Hashtbl.replace tbl sp.Span.sp_id r;
        r
  in
  root_of

let attrs_json (sp : Span.span) extra =
  Jsonlite.Obj (extra @ List.map (fun (k, v) -> (k, Jsonlite.String v)) sp.Span.sp_attrs)

let ns_int t = Int64.to_int (Units.to_ns t)

let trace_json ?(collector = Span.global) () =
  let root_of = root_table collector in
  let events =
    List.map
      (fun (sp : Span.span) ->
        let begin_ns = ns_int sp.Span.sp_begin in
        let dur_ns = ns_int (Units.sub sp.Span.sp_end sp.Span.sp_begin) in
        Jsonlite.Obj
          [
            ("name", Jsonlite.String sp.Span.sp_label);
            ("cat", Jsonlite.String sp.Span.sp_category);
            ("ph", Jsonlite.String "X");
            ("ts", Jsonlite.Int (begin_ns / 1000));
            ("dur", Jsonlite.Int (dur_ns / 1000));
            ("pid", Jsonlite.Int 1);
            ("tid", Jsonlite.Int (root_of sp));
            ( "args",
              attrs_json sp
                [
                  ("span_id", Jsonlite.Int sp.Span.sp_id);
                  ("parent", Jsonlite.Int sp.Span.sp_parent);
                  ("ts_ns", Jsonlite.Int begin_ns);
                  ("dur_ns", Jsonlite.Int dur_ns);
                ] );
          ])
      (Span.spans collector)
  in
  Jsonlite.Obj
    [
      ("traceEvents", Jsonlite.List events);
      ("displayTimeUnit", Jsonlite.String "ns");
    ]

let trace_json_string ?collector () = Jsonlite.to_string (trace_json ?collector ())

let spans_jsonl ?(collector = Span.global) () =
  let line (sp : Span.span) =
    Jsonlite.to_string
      (Jsonlite.Obj
         [
           ("id", Jsonlite.Int sp.Span.sp_id);
           ("parent", Jsonlite.Int sp.Span.sp_parent);
           ("category", Jsonlite.String sp.Span.sp_category);
           ("label", Jsonlite.String sp.Span.sp_label);
           ("begin_ns", Jsonlite.Int (ns_int sp.Span.sp_begin));
           ("end_ns", Jsonlite.Int (ns_int sp.Span.sp_end));
           ("attrs", attrs_json sp []);
         ])
  in
  String.concat "" (List.map (fun sp -> line sp ^ "\n") (Span.spans collector))

(* --- Metrics export ------------------------------------------------ *)

let metrics_json () =
  let snap = Metrics.snapshot () in
  let histo (h : Metrics.histo_snapshot) =
    Jsonlite.Obj
      [
        ("name", Jsonlite.String h.Metrics.hs_name);
        ("count", Jsonlite.Int h.Metrics.hs_count);
        ("sum", Jsonlite.Float h.Metrics.hs_sum);
        ("min", Jsonlite.Float h.Metrics.hs_min);
        ("max", Jsonlite.Float h.Metrics.hs_max);
        ("p50", Jsonlite.Float h.Metrics.hs_p50);
        ("p90", Jsonlite.Float h.Metrics.hs_p90);
        ("p99", Jsonlite.Float h.Metrics.hs_p99);
        ( "buckets",
          Jsonlite.List
            (List.map
               (fun (i, c) -> Jsonlite.List [ Jsonlite.Int i; Jsonlite.Int c ])
               h.Metrics.hs_buckets) );
      ]
  in
  Jsonlite.Obj
    [
      ( "counters",
        Jsonlite.Obj
          (List.map (fun (n, v) -> (n, Jsonlite.Int v)) snap.Metrics.snap_counters) );
      ( "gauges",
        Jsonlite.Obj
          (List.map (fun (n, v) -> (n, Jsonlite.Float v)) snap.Metrics.snap_gauges) );
      ("histograms", Jsonlite.List (List.map histo snap.Metrics.snap_histograms));
    ]

let metrics_json_string () = Jsonlite.to_string (metrics_json ())

(* --- Critical-path breakdown --------------------------------------- *)

let categories =
  [ "boot"; "load-slow"; "load-fast"; "compute"; "transfer"; "network"; "io"; "retry" ]

let bucket_of category = if List.mem category categories then category else "other"

type breakdown = {
  bd_root : Span.id;
  bd_label : string;
  bd_total : Units.time;
  bd_buckets : (string * Units.time) list;
}

(* Children indexed by parent once; Span.children is O(n) per call.
   Shared between [breakdown] (one root) and [tails] (every tail
   root), so attribution over k roots indexes the tree once. *)
let index_children collector =
  let by_parent : (Span.id, Span.span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (sp : Span.span) ->
      if sp.Span.sp_id <> sp.Span.sp_parent then
        let prev =
          match Hashtbl.find_opt by_parent sp.Span.sp_parent with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace by_parent sp.Span.sp_parent (sp :: prev))
    (Span.spans collector);
  by_parent

let breakdown_indexed by_parent (root_span : Span.span) =
  let buckets = Hashtbl.create 16 in
  let attribute category d =
    if Units.( > ) d Units.zero then begin
      let b = bucket_of category in
      let prev =
        match Hashtbl.find_opt buckets b with Some v -> v | None -> Units.zero
      in
      Hashtbl.replace buckets b (Units.add prev d)
    end
  in
  (* Latest-finisher walk: within [lo, hi] of [sp], scan the children
     clipped to the interval from the latest end backwards.  A child
     whose (clipped) interval ends at or before the cursor claims it
     and recursion descends; the gap between its end and the cursor
     belongs to [sp] itself.  A child overlapping the cursor is
     shadowed by the sibling already claimed there and contributes
     nothing.  Every nanosecond of [hi - lo] lands in exactly one
     bucket, so the breakdown sums to the root duration exactly. *)
  let rec walk (sp : Span.span) lo hi =
    let kids =
      match Hashtbl.find_opt by_parent sp.Span.sp_id with
      | Some l -> l
      | None -> []
    in
    let clipped =
      List.filter_map
        (fun (k : Span.span) ->
          let b = Units.max k.Span.sp_begin lo in
          let e = Units.min k.Span.sp_end hi in
          if Units.( < ) b e then Some (k, b, e) else None)
        kids
    in
    let ordered =
      List.sort
        (fun ((a : Span.span), ab, ae) ((b : Span.span), bb, be) ->
          match Units.compare be ae with
          | 0 -> (
              match Units.compare ab bb with
              | 0 -> Stdlib.compare a.Span.sp_id b.Span.sp_id
              | c -> c)
          | c -> c)
        clipped
    in
    let cursor = ref hi in
    List.iter
      (fun (k, b, e) ->
        if Units.( <= ) e !cursor && Units.( < ) b !cursor then begin
          attribute sp.Span.sp_category (Units.sub !cursor e);
          walk k b e;
          cursor := b
        end)
      ordered;
    attribute sp.Span.sp_category (Units.sub !cursor lo)
  in
  walk root_span root_span.Span.sp_begin root_span.Span.sp_end;
  let all = categories @ [ "other" ] in
  {
    bd_root = root_span.Span.sp_id;
    bd_label = root_span.Span.sp_label;
    bd_total = Units.sub root_span.Span.sp_end root_span.Span.sp_begin;
    bd_buckets =
      List.map
        (fun c ->
          ( c,
            match Hashtbl.find_opt buckets c with
            | Some v -> v
            | None -> Units.zero ))
        all;
  }

let breakdown ?(collector = Span.global) ~root () =
  let root_span =
    match Span.find collector root with
    | Some sp -> sp
    | None -> invalid_arg "Obs.breakdown: unknown root span"
  in
  breakdown_indexed (index_children collector) root_span

let find_root ?(collector = Span.global) ~category () =
  List.fold_left
    (fun acc (sp : Span.span) ->
      if String.equal sp.Span.sp_category category then Some sp else acc)
    None
    (Span.roots collector)

let render_breakdown bd =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "critical path of %s (e2e %s):\n" bd.bd_label
    (Units.to_string bd.bd_total);
  let total_ns = Int64.to_float (Units.to_ns bd.bd_total) in
  List.iter
    (fun (c, d) ->
      if Units.( > ) d Units.zero then begin
        let pct =
          if total_ns <= 0.0 then 0.0
          else 100.0 *. Int64.to_float (Units.to_ns d) /. total_ns
        in
        Printf.bprintf buf "  %-10s %12s  %5.1f%%\n" c (Units.to_string d) pct
      end)
    bd.bd_buckets;
  Printf.bprintf buf "  %-10s %12s  100.0%%\n" "total" (Units.to_string bd.bd_total);
  Buffer.contents buf

(* --- Tail attribution ---------------------------------------------- *)

type tail_entry = {
  te_category : string;
  te_count : int;
  te_share : float;
  te_mean_total : Units.time;
  te_mean_bucket : Units.time;
}

type tail_report = {
  tr_quantile : float;
  tr_threshold : Units.time;
  tr_population : int;
  tr_tail : int;
  tr_entries : tail_entry list;
}

let span_duration (sp : Span.span) = Units.sub sp.Span.sp_end sp.Span.sp_begin

(* The dominant cost of one breakdown: the largest bucket, ties going
   to the earlier category in report order (the buckets list is
   already in that order, so strict-greater keeps the first max). *)
let dominant bd =
  List.fold_left
    (fun ((_, best_d) as best) ((_, d) as cand) ->
      if Units.( > ) d best_d then cand else best)
    ("other", Units.zero) bd.bd_buckets

let tails ?(collector = Span.global) ?(quantile = 99.0) ?category () =
  if not (quantile > 0.0 && quantile <= 100.0) then
    invalid_arg "Obs.tails: quantile must be in (0,100]";
  let roots = Span.roots collector in
  let roots =
    match category with
    | Some c -> List.filter (fun (sp : Span.span) -> String.equal sp.Span.sp_category c) roots
    | None ->
        (* Serving traces have "request" roots; single-run traces have
           whatever the workflow rooted.  Prefer requests when present
           so a mixed trace attributes the served tail, not warmup. *)
        let reqs =
          List.filter (fun (sp : Span.span) -> String.equal sp.Span.sp_category "request") roots
        in
        if reqs = [] then roots else reqs
  in
  let population = List.length roots in
  if population = 0 then
    {
      tr_quantile = quantile;
      tr_threshold = Units.zero;
      tr_population = 0;
      tr_tail = 0;
      tr_entries = [];
    }
  else begin
    (* Exact nearest-rank threshold over the sampled population, ties
       broken by span id so the cut is deterministic. *)
    let by_duration =
      List.sort
        (fun (a : Span.span) (b : Span.span) ->
          match Units.compare (span_duration a) (span_duration b) with
          | 0 -> Stdlib.compare a.Span.sp_id b.Span.sp_id
          | c -> c)
        roots
    in
    let rank =
      let r = int_of_float (Float.ceil (quantile /. 100.0 *. float_of_int population)) in
      if r < 1 then 1 else if r > population then population else r
    in
    let threshold = span_duration (List.nth by_duration (rank - 1)) in
    let tail =
      List.filter (fun sp -> Units.( >= ) (span_duration sp) threshold) by_duration
    in
    let by_parent = index_children collector in
    let agg = Hashtbl.create 8 in
    List.iter
      (fun (sp : Span.span) ->
        let bd = breakdown_indexed by_parent sp in
        let cat, d = dominant bd in
        let count, tot, bucket =
          match Hashtbl.find_opt agg cat with
          | Some v -> v
          | None -> (0, Units.zero, Units.zero)
        in
        Hashtbl.replace agg cat
          (count + 1, Units.add tot bd.bd_total, Units.add bucket d))
      tail;
    let n_tail = List.length tail in
    let entries =
      List.filter_map
        (fun cat ->
          match Hashtbl.find_opt agg cat with
          | None -> None
          | Some (count, tot, bucket) ->
              Some
                {
                  te_category = cat;
                  te_count = count;
                  te_share = float_of_int count /. float_of_int n_tail;
                  te_mean_total = Units.scale tot (1.0 /. float_of_int count);
                  te_mean_bucket = Units.scale bucket (1.0 /. float_of_int count);
                })
        (categories @ [ "other" ])
      (* Biggest culprit first; count ties keep report order. *)
      |> List.stable_sort (fun a b -> Stdlib.compare b.te_count a.te_count)
    in
    {
      tr_quantile = quantile;
      tr_threshold = threshold;
      tr_population = population;
      tr_tail = n_tail;
      tr_entries = entries;
    }
  end

let render_tails tr =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "tail requests >= p%g (%s): %d of %d sampled\n" tr.tr_quantile
    (Units.to_string tr.tr_threshold) tr.tr_tail tr.tr_population;
  if tr.tr_entries <> [] then begin
    Printf.bprintf buf "  %-10s %6s %7s %12s %14s\n" "verdict" "count" "share"
      "mean e2e" "mean in-bucket";
    List.iter
      (fun e ->
        Printf.bprintf buf "  %-10s %6d %6.1f%% %12s %14s\n" e.te_category
          e.te_count (100.0 *. e.te_share)
          (Units.to_string e.te_mean_total)
          (Units.to_string e.te_mean_bucket))
      tr.tr_entries
  end;
  Buffer.contents buf

let tails_json tr =
  Jsonlite.Obj
    [
      ("quantile", Jsonlite.Float tr.tr_quantile);
      ("threshold_ns", Jsonlite.Int (ns_int tr.tr_threshold));
      ("population", Jsonlite.Int tr.tr_population);
      ("tail", Jsonlite.Int tr.tr_tail);
      ( "verdicts",
        Jsonlite.List
          (List.map
             (fun e ->
               Jsonlite.Obj
                 [
                   ("category", Jsonlite.String e.te_category);
                   ("count", Jsonlite.Int e.te_count);
                   ("share", Jsonlite.Float e.te_share);
                   ("mean_total_ns", Jsonlite.Int (ns_int e.te_mean_total));
                   ("mean_bucket_ns", Jsonlite.Int (ns_int e.te_mean_bucket));
                 ])
             tr.tr_entries) );
    ]

(* --- Prometheus text-format export --------------------------------- *)

(* Valid Prometheus metric names are [[a-zA-Z_:][a-zA-Z0-9_:]*]; our
   dotted names sanitize by replacing everything else with '_'.  A
   [Metrics.labels]-encoded name keeps its label block verbatim and
   only the base is sanitized. *)
let prom_name name =
  let base = Metrics.base_name name in
  let labels =
    String.sub name (String.length base) (String.length name - String.length base)
  in
  let b = Bytes.of_string base in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
        || (i > 0 && c >= '0' && c <= '9')
      in
      if not ok then Bytes.set b i '_')
    b;
  (Bytes.to_string b, labels)

(* Fixed-point float rendering (no %g, which flips to scientific
   notation and is locale/precision dependent in ways that break the
   byte-identity contract). *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%.6f" v in
    let n = String.length s in
    let last = ref (n - 1) in
    while !last > 0 && s.[!last] = '0' && s.[!last - 1] <> '.' do
      decr last
    done;
    String.sub s 0 (!last + 1)
  end

let prometheus_string () =
  let snap = Metrics.snapshot () in
  let buf = Buffer.create 4096 in
  (* One TYPE line per metric family: group samples by sanitized base
     name (label variants of one base may not sort adjacent in the raw
     list — "x_total" sorts between "x" and "x{...}"). *)
  let emit_simple kind entries value_of =
    let keyed =
      List.map
        (fun (name, v) ->
          let base, labels = prom_name name in
          (base, labels, v))
        entries
      |> List.sort (fun (b1, l1, _) (b2, l2, _) ->
             match String.compare b1 b2 with
             | 0 -> String.compare l1 l2
             | c -> c)
    in
    let last_base = ref "" in
    List.iter
      (fun (base, labels, v) ->
        if base <> !last_base then begin
          Printf.bprintf buf "# TYPE %s %s\n" base kind;
          last_base := base
        end;
        Printf.bprintf buf "%s%s %s\n" base labels (value_of v))
      keyed
  in
  emit_simple "counter" snap.Metrics.snap_counters string_of_int;
  emit_simple "gauge" snap.Metrics.snap_gauges prom_float;
  let histos =
    List.map
      (fun (h : Metrics.histo_snapshot) ->
        let base, labels = prom_name h.Metrics.hs_name in
        (base, labels, h))
      snap.Metrics.snap_histograms
    |> List.sort (fun (b1, l1, _) (b2, l2, _) ->
           match String.compare b1 b2 with
           | 0 -> String.compare l1 l2
           | c -> c)
  in
  let last_base = ref "" in
  List.iter
    (fun (base, labels, (h : Metrics.histo_snapshot)) ->
      if base <> !last_base then begin
        Printf.bprintf buf "# TYPE %s histogram\n" base;
        last_base := base
      end;
      (* The label block already ends in '}' when present; bucket lines
         splice the le label into it. *)
      let with_le le =
        if labels = "" then Printf.sprintf "{le=\"%s\"}" le
        else
          Printf.sprintf "%s,le=\"%s\"}" (String.sub labels 0 (String.length labels - 1)) le
      in
      let cum = ref 0 in
      List.iter
        (fun (i, c) ->
          cum := !cum + c;
          Printf.bprintf buf "%s_bucket%s %d\n" base
            (with_le (prom_float (Metrics.bucket_bound i)))
            !cum)
        h.Metrics.hs_buckets;
      Printf.bprintf buf "%s_bucket%s %d\n" base (with_le "+Inf") h.Metrics.hs_count;
      Printf.bprintf buf "%s_sum%s %s\n" base labels (prom_float h.Metrics.hs_sum);
      Printf.bprintf buf "%s_count%s %d\n" base labels h.Metrics.hs_count)
    histos;
  Buffer.contents buf
