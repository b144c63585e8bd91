(* Tests for the sim substrate: units, clocks, stats, event queue,
   RNG, tables. *)

open Sim

let check_time = Alcotest.testable Units.pp Units.equal

let test_units_construction () =
  Alcotest.(check int64) "us" 1_000L (Units.to_ns (Units.us 1));
  Alcotest.(check int64) "ms" 1_000_000L (Units.to_ns (Units.ms 1));
  Alcotest.(check int64) "sec" 1_000_000_000L (Units.to_ns (Units.sec 1));
  Alcotest.check check_time "float us" (Units.us 3) (Units.us_f 3.0);
  Alcotest.(check int64) "rounding" 2L (Units.to_ns (Units.ns_f 1.6))

let test_units_arith () =
  let a = Units.us 5 and b = Units.us 3 in
  Alcotest.check check_time "add" (Units.us 8) (Units.add a b);
  Alcotest.check check_time "sub" (Units.us 2) (Units.sub a b);
  Alcotest.check check_time "sub saturates" Units.zero (Units.sub b a);
  Alcotest.check check_time "diff symm" (Units.diff a b) (Units.diff b a);
  Alcotest.check check_time "scale" (Units.us 10) (Units.scale a 2.0);
  Alcotest.check check_time "max" a (Units.max a b);
  Alcotest.check check_time "min" b (Units.min a b)

let test_units_bandwidth () =
  (* 1 GB/s moving 1 MB takes 1 ms. *)
  let t = Units.time_for_bytes ~bytes_per_sec:1e9 1_000_000 in
  Alcotest.check check_time "bandwidth" (Units.ms 1) t;
  Alcotest.check check_time "zero bytes" Units.zero
    (Units.time_for_bytes ~bytes_per_sec:1e9 0);
  Alcotest.(check (float 1.0)) "gbit" 1.25e9 (Units.gbit_per_sec 10.0);
  Alcotest.(check (float 1.0)) "mb" 362.0e6 (Units.mb_per_sec 362.0)

let test_units_pp () =
  Alcotest.(check string) "ns" "500ns" (Units.to_string (Units.ns 500));
  Alcotest.(check string) "us" "1.30us" (Units.to_string (Units.ns 1_300));
  Alcotest.(check string) "ms" "1.30ms" (Units.to_string (Units.us 1_300));
  Alcotest.(check string) "s" "1.300s" (Units.to_string (Units.ms 1_300));
  Alcotest.(check string) "bytes" "16MB" (Units.bytes_to_string (Units.mib 16))

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.check check_time "starts at zero" Units.zero (Clock.now c);
  Clock.advance c (Units.us 10);
  Alcotest.check check_time "advance" (Units.us 10) (Clock.now c);
  Clock.advance_to c (Units.us 5);
  Alcotest.check check_time "advance_to backwards is no-op" (Units.us 10) (Clock.now c);
  Clock.advance_to c (Units.us 50);
  Alcotest.check check_time "advance_to forward" (Units.us 50) (Clock.now c)

let test_clock_sync () =
  let a = Clock.create () and b = Clock.create ~at:(Units.ms 2) () in
  Clock.sync a b;
  Alcotest.check check_time "a catches up" (Units.ms 2) (Clock.now a);
  Clock.sync b a;
  Alcotest.check check_time "b unchanged" (Units.ms 2) (Clock.now b);
  let copy = Clock.copy a in
  Clock.advance copy (Units.ms 1);
  Alcotest.check check_time "copy is independent" (Units.ms 2) (Clock.now a)

let test_clock_makespan () =
  let clocks = [ Clock.create ~at:(Units.us 3) (); Clock.create ~at:(Units.us 9) () ] in
  Alcotest.check check_time "makespan" (Units.us 9) (Clock.makespan clocks);
  Alcotest.check check_time "empty makespan" Units.zero (Clock.makespan [])

let test_stats_basics () =
  let s = Stats.create () in
  Alcotest.(check bool) "empty" true (Stats.is_empty s);
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.p50 s);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.stddev s)

let test_stats_percentile_interp () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15.0 (Stats.p50 s);
  Alcotest.(check (float 1e-9)) "p99" 19.9 (Stats.percentile s 99.0)

let test_stats_after_add () =
  (* Percentile then add then percentile again: sortedness must be
     re-established. *)
  let s = Stats.create () in
  Stats.add s 5.0;
  Stats.add s 1.0;
  Alcotest.(check (float 1e-9)) "first" 1.0 (Stats.percentile s 0.0);
  Stats.add s 0.5;
  Alcotest.(check (float 1e-9)) "after add" 0.5 (Stats.percentile s 0.0);
  Stats.clear s;
  Alcotest.(check bool) "cleared" true (Stats.is_empty s);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0))

let test_stats_percentile_edges () =
  let s = Stats.create () in
  Stats.add s 42.0;
  (* A single sample is every percentile. *)
  Alcotest.(check (float 1e-9)) "p0 of singleton" 42.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50 of singleton" 42.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100 of singleton" 42.0 (Stats.percentile s 100.0);
  Alcotest.check_raises "p below range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile s (-0.5)));
  Alcotest.check_raises "p above range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile s 100.5));
  let empty = Stats.create () in
  Alcotest.check_raises "empty raises even at valid p"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile empty 50.0))

let test_stats_percentile_unsorted () =
  (* Percentiles are order-free: an unsorted insertion sequence must
     answer exactly like the sorted one. *)
  let unsorted = Stats.create () in
  List.iter (Stats.add unsorted) [ 30.0; 5.0; 50.0; 10.0; 20.0 ];
  Alcotest.(check (float 1e-9)) "p0 is min" 5.0 (Stats.percentile unsorted 0.0);
  Alcotest.(check (float 1e-9)) "p50 is median" 20.0 (Stats.percentile unsorted 50.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 50.0 (Stats.percentile unsorted 100.0);
  let sorted = Stats.create () in
  List.iter (Stats.add sorted) [ 5.0; 10.0; 20.0; 30.0; 50.0 ];
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g insertion-order free" p)
        (Stats.percentile sorted p) (Stats.percentile unsorted p))
    [ 0.0; 25.0; 50.0; 75.0; 99.0; 100.0 ]

let test_stats_time () =
  let s = Stats.create () in
  Stats.add_time s (Units.us 10);
  Stats.add_time s (Units.us 20);
  Alcotest.check check_time "mean time" (Units.us 15) (Stats.mean_time s)

let test_eventq_ordering () =
  let q = Eventq.create () in
  Eventq.push q ~at:(Units.us 5) "b";
  Eventq.push q ~at:(Units.us 1) "a";
  Eventq.push q ~at:(Units.us 9) "c";
  Alcotest.check check_time "next_at" (Units.us 1) (Eventq.next_at q);
  let order = List.init 3 (fun _ -> Eventq.pop q) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (Eventq.is_empty q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> Eventq.push q ~at:(Units.us 7) s) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> Eventq.pop q) in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create 43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_ranges () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of range";
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let a = List.init 10 (fun _ -> Rng.int parent 100) in
  let b = List.init 10 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_exponential_mean () =
  let rng = Rng.create 99 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 5"
    true
    (mean > 4.7 && mean < 5.3)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* [bytes] is [n] byte draws, and the literals pin the splitmix64
   streams of [create], [copy] and [split], so a change of state
   representation that alters any stream fails here. *)
let test_rng_bytes_and_pinned_streams () =
  List.iter
    (fun n ->
      let a = Rng.create 11 and b = Rng.create 11 in
      let got = Rng.bytes a n in
      let want = Bytes.init n (fun _ -> Char.chr (Rng.int b 256)) in
      Alcotest.(check bytes) (Printf.sprintf "bytes %d = %d draws" n n) want got;
      Alcotest.(check int64) (Printf.sprintf "same state after %d" n) (Rng.next_int64 b)
        (Rng.next_int64 a))
    [ 0; 1; 7; 4097 ];
  let draws t k = List.init k (fun _ -> Rng.next_int64 t) in
  let t = Rng.create 42 in
  Alcotest.(check (list int64)) "create 42"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ]
    (draws t 3);
  let c = Rng.copy t in
  Alcotest.(check (list int64)) "copy" [ 885919558081284366L; -353919125003956057L ] (draws c 2);
  Alcotest.(check int64) "original after copy" 885919558081284366L (Rng.next_int64 t);
  let s = Rng.split t in
  Alcotest.(check (list int64)) "split" [ -6585662623018088301L; 8012294733090524313L ]
    (draws s 2);
  Alcotest.(check int64) "parent after split" 4337243929683858115L (Rng.next_int64 t);
  let u = Rng.create 42 in
  Alcotest.(check (list int)) "int draws" [ 570; 797; 285; 91; 889 ]
    (List.init 5 (fun _ -> Rng.int u 1000))

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 6 = "== T =");
  (* A padded row must not raise and must include the long cell. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "long cell present" true (contains out "333")

let test_trace_disabled_noop () =
  let t = Trace.create () in
  Trace.record t ~at:Units.zero ~category:"x" ~label:"y" "z";
  Alcotest.(check int) "disabled records nothing" 0 (Trace.count t)

let test_trace_records_and_filters () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  Trace.record t ~at:(Units.us 1) ~category:"visor" ~label:"a" "1";
  Trace.recordf t ~at:(Units.us 2) ~category:"loader" ~label:"b" "mod %s" "mm";
  Trace.record t ~at:(Units.us 3) ~category:"visor" ~label:"c" "3";
  Alcotest.(check int) "count" 3 (Trace.count t);
  Alcotest.(check int) "filter" 2 (List.length (Trace.filter t ~category:"visor"));
  (match Trace.events t with
  | { Trace.label = "a"; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest first");
  Alcotest.(check bool) "formatted detail" true
    (List.exists (fun (e : Trace.event) -> e.Trace.detail = "mod mm") (Trace.events t));
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.count t)

let test_trace_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  Trace.set_enabled t true;
  for i = 1 to 10 do
    Trace.record t ~at:(Units.us i) ~category:"c" ~label:(string_of_int i) ""
  done;
  Alcotest.(check int) "capacity bound" 4 (Trace.count t);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  match Trace.events t with
  | { Trace.label = "7"; _ } :: _ -> ()
  | e :: _ -> Alcotest.fail ("expected label 7, got " ^ e.Trace.label)
  | [] -> Alcotest.fail "empty"

let test_trace_ring_boundaries () =
  (* Filling to exactly capacity drops nothing; wrap-around keeps the
     newest events in order and clear resets the drop counter. *)
  let t = Trace.create ~capacity:3 () in
  Trace.set_enabled t true;
  for i = 1 to 3 do
    Trace.record t ~at:(Units.us i) ~category:"c" ~label:(string_of_int i) ""
  done;
  Alcotest.(check int) "full, nothing dropped" 0 (Trace.dropped t);
  Alcotest.(check (list string)) "all retained in order" [ "1"; "2"; "3" ]
    (List.map (fun (e : Trace.event) -> e.Trace.label) (Trace.events t));
  Trace.record t ~at:(Units.us 4) ~category:"c" ~label:"4" "";
  Alcotest.(check int) "one dropped past capacity" 1 (Trace.dropped t);
  Alcotest.(check (list string)) "oldest evicted" [ "2"; "3"; "4" ]
    (List.map (fun (e : Trace.event) -> e.Trace.label) (Trace.events t));
  Trace.clear t;
  Alcotest.(check int) "clear resets count" 0 (Trace.count t);
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped t)

let test_recordf_disabled_builds_nothing () =
  (* Regression: with tracing disabled, recordf must not run the
     formatter — a custom %a printer is never invoked. *)
  let t = Trace.create () in
  let invoked = ref false in
  let pp fmt () =
    invoked := true;
    Format.pp_print_string fmt "x"
  in
  Trace.recordf t ~at:Units.zero ~category:"c" ~label:"l" "%a" pp ();
  Alcotest.(check bool) "printer skipped when disabled" false !invoked;
  Alcotest.(check int) "nothing recorded" 0 (Trace.count t);
  Trace.set_enabled t true;
  Trace.recordf t ~at:Units.zero ~category:"c" ~label:"l" "%a" pp ();
  Alcotest.(check bool) "printer runs when enabled" true !invoked;
  (match Trace.events t with
  | [ e ] -> Alcotest.(check string) "detail built when enabled" "x" e.Trace.detail
  | _ -> Alcotest.fail "expected exactly one event")

let suite =
  [
    Alcotest.test_case "units construction" `Quick test_units_construction;
    Alcotest.test_case "units arithmetic" `Quick test_units_arith;
    Alcotest.test_case "units bandwidth" `Quick test_units_bandwidth;
    Alcotest.test_case "units pretty printing" `Quick test_units_pp;
    Alcotest.test_case "clock basics" `Quick test_clock_basics;
    Alcotest.test_case "clock sync/copy" `Quick test_clock_sync;
    Alcotest.test_case "clock makespan" `Quick test_clock_makespan;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats percentile interpolation" `Quick test_stats_percentile_interp;
    Alcotest.test_case "stats resort after add" `Quick test_stats_after_add;
    Alcotest.test_case "stats percentile edges" `Quick test_stats_percentile_edges;
    Alcotest.test_case "stats percentile unsorted" `Quick test_stats_percentile_unsorted;
    Alcotest.test_case "stats time helpers" `Quick test_stats_time;
    Alcotest.test_case "eventq ordering" `Quick test_eventq_ordering;
    Alcotest.test_case "eventq FIFO ties" `Quick test_eventq_fifo_ties;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "trace disabled noop" `Quick test_trace_disabled_noop;
    Alcotest.test_case "trace record/filter" `Quick test_trace_records_and_filters;
    Alcotest.test_case "trace ring overflow" `Quick test_trace_ring_overflow;
    Alcotest.test_case "trace ring boundaries" `Quick test_trace_ring_boundaries;
    Alcotest.test_case "recordf disabled builds nothing" `Quick
      test_recordf_disabled_builds_nothing;
    Alcotest.test_case "rng bytes and pinned streams" `Quick test_rng_bytes_and_pinned_streams;
  ]
