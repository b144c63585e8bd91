(* Windowed virtual-time series: fixed-width windows in a ring with
   bounded retention.  Handles are names, like [Metrics] — the cell
   lives in the timeseries.  Serving records every observation from its
   sequential merge loop, so no shard ever carries a timeseries.

   Every ring slot is addressed [w mod retention]; a slot is live for
   window [w] only while [w] is within the series' own advance range
   [s_last - retention + 1 .. s_last].  Advancing a series zeroes the
   slots its new windows reuse, so idle gaps read back as genuinely
   empty windows rather than stale wrapped data. *)

type scalar_kind = Counter | Gauge

type scalar = {
  sc_kind : scalar_kind;
  sc_ring : float array;
  mutable sc_last : int;  (* highest window written; -1 when empty *)
}

type dwin = {
  mutable dw_count : int;
  mutable dw_sum : float;
  mutable dw_digest : Sketch.Tdigest.t option;  (* lazy per window *)
}

type dseries = {
  ds_ring : dwin array;
  mutable ds_last : int;
}

type t = {
  t_width : Units.time;
  t_retention : int;
  mutable t_last : int;  (* highest window touched anywhere; -1 empty *)
  mutable t_dropped : int;
  t_scalars : (string, scalar) Hashtbl.t;
  t_dists : (string, dseries) Hashtbl.t;
}

type series = string
type dist = string

let create ?(width = Units.sec 1) ?(retention = 4096) () =
  if Units.equal width Units.zero then
    invalid_arg "Timeseries.create: zero window width";
  if retention < 1 then invalid_arg "Timeseries.create: retention < 1";
  {
    t_width = width;
    t_retention = retention;
    t_last = -1;
    t_dropped = 0;
    t_scalars = Hashtbl.create 16;
    t_dists = Hashtbl.create 16;
  }

let width t = t.t_width
let retention t = t.t_retention
let last_window t = t.t_last
let first_window t = if t.t_last < 0 then 0 else Stdlib.max 0 (t.t_last - t.t_retention + 1)
let dropped t = t.t_dropped

let window_of t at = Int64.to_int (Int64.div (Units.to_ns at) (Units.to_ns t.t_width))
let window_start t w = Units.ns_f (Int64.to_float (Int64.mul (Int64.of_int w) (Units.to_ns t.t_width)))

let scalar_cell t kind name =
  if Hashtbl.mem t.t_dists name then
    invalid_arg ("Timeseries: " ^ name ^ " is already a dist series");
  match Hashtbl.find_opt t.t_scalars name with
  | Some s ->
      if s.sc_kind <> kind then
        invalid_arg ("Timeseries: " ^ name ^ " registered with another kind");
      s
  | None ->
      let s = { sc_kind = kind; sc_ring = Array.make t.t_retention 0.0; sc_last = -1 } in
      Hashtbl.replace t.t_scalars name s;
      s

let counter t name =
  ignore (scalar_cell t Counter name);
  name

let gauge t name =
  ignore (scalar_cell t Gauge name);
  name

let dist t name =
  if Hashtbl.mem t.t_scalars name then
    invalid_arg ("Timeseries: " ^ name ^ " is already a scalar series");
  (if not (Hashtbl.mem t.t_dists name) then
     let ds =
       {
         ds_ring =
           Array.init t.t_retention (fun _ ->
               { dw_count = 0; dw_sum = 0.0; dw_digest = None });
         ds_last = -1;
       }
     in
     Hashtbl.replace t.t_dists name ds);
  name

let touch t w = if w > t.t_last then t.t_last <- w

(* Advance a scalar ring so window [w] is addressable, zeroing every
   slot that changes owner.  O(windows skipped), capped at one full
   ring sweep however long the idle gap was. *)
let advance_scalar t (s : scalar) w =
  if w > s.sc_last then begin
    let from = Stdlib.max (s.sc_last + 1) (w - t.t_retention + 1) in
    for i = from to w do
      s.sc_ring.(i mod t.t_retention) <- 0.0
    done;
    s.sc_last <- w
  end

let reset_dwin dw =
  dw.dw_count <- 0;
  dw.dw_sum <- 0.0;
  match dw.dw_digest with Some d -> Sketch.Tdigest.clear d | None -> ()

let advance_dist t (ds : dseries) w =
  if w > ds.ds_last then begin
    let from = Stdlib.max (ds.ds_last + 1) (w - t.t_retention + 1) in
    for i = from to w do
      reset_dwin ds.ds_ring.(i mod t.t_retention)
    done;
    ds.ds_last <- w
  end

(* A window is writable when it has not yet fallen behind the global
   retention horizon; older observations are counted, not recorded. *)
let writable t w =
  touch t w;
  if w < first_window t then begin
    t.t_dropped <- t.t_dropped + 1;
    false
  end
  else true

let add t series ~at v =
  let s = Hashtbl.find t.t_scalars series in
  let w = window_of t at in
  if writable t w then begin
    advance_scalar t s w;
    let slot = w mod t.t_retention in
    match s.sc_kind with
    | Counter -> s.sc_ring.(slot) <- s.sc_ring.(slot) +. v
    | Gauge -> if v > s.sc_ring.(slot) then s.sc_ring.(slot) <- v
  end

let dist_cell t dist w =
  let ds = Hashtbl.find t.t_dists dist in
  advance_dist t ds w;
  ds.ds_ring.(w mod t.t_retention)

let observe t dist ~at v =
  let w = window_of t at in
  if writable t w then begin
    let dw = dist_cell t dist w in
    dw.dw_count <- dw.dw_count + 1;
    dw.dw_sum <- dw.dw_sum +. v;
    let d =
      match dw.dw_digest with
      | Some d -> d
      | None ->
          let d = Sketch.Tdigest.create () in
          dw.dw_digest <- Some d;
          d
    in
    Sketch.Tdigest.add d v
  end

(* Reads: a slot answers for [w] only if the series has advanced to or
   past it and it has not wrapped out of the series' own range; and
   never for windows behind the global horizon. *)
let scalar_live t (s : scalar) w =
  w >= 0 && w <= s.sc_last && w > s.sc_last - t.t_retention && w >= first_window t

let dist_live t (ds : dseries) w =
  w >= 0 && w <= ds.ds_last && w > ds.ds_last - t.t_retention && w >= first_window t

let value t series w =
  let s = Hashtbl.find t.t_scalars series in
  if scalar_live t s w then s.sc_ring.(w mod t.t_retention) else 0.0

let dist_cell_ro t dist w =
  let ds = Hashtbl.find t.t_dists dist in
  if dist_live t ds w then Some ds.ds_ring.(w mod t.t_retention) else None

let dist_count t d w = match dist_cell_ro t d w with Some dw -> dw.dw_count | None -> 0
let dist_sum t d w = match dist_cell_ro t d w with Some dw -> dw.dw_sum | None -> 0.0

let dist_percentile t d w p =
  match dist_cell_ro t d w with
  | Some { dw_count; dw_digest = Some dg; _ } when dw_count > 0 ->
      Sketch.Tdigest.percentile dg p
  | _ -> 0.0

let names t =
  let acc = Hashtbl.fold (fun n _ acc -> n :: acc) t.t_scalars [] in
  let acc = Hashtbl.fold (fun n _ acc -> n :: acc) t.t_dists acc in
  List.sort String.compare acc

(* Fixed-point float rendering: six decimals, trailing zeros trimmed
   to one.  Unlike %g this never switches to scientific notation, so
   equal doubles render identically on every host. *)
let fmt_float v =
  let s = Printf.sprintf "%.6f" v in
  let n = String.length s in
  let last = ref (n - 1) in
  while !last > 0 && s.[!last] = '0' && s.[!last - 1] <> '.' do
    decr last
  done;
  String.sub s 0 (!last + 1)

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,kind,window,start_s,value,count,sum,p50,p99\n";
  if t.t_last >= 0 then begin
    let lo = first_window t and hi = t.t_last in
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.t_scalars name with
        | Some s ->
            let kind = match s.sc_kind with Counter -> "counter" | Gauge -> "gauge" in
            for w = lo to hi do
              Buffer.add_string buf
                (Printf.sprintf "%s,%s,%d,%s,%s,,,,\n" name kind w
                   (fmt_float (Units.to_sec (window_start t w)))
                   (fmt_float (value t name w)))
            done
        | None ->
            for w = lo to hi do
              let count = dist_count t name w in
              let p pct = if count = 0 then "0" else fmt_float (dist_percentile t name w pct) in
              Buffer.add_string buf
                (Printf.sprintf "%s,dist,%d,%s,,%d,%s,%s,%s\n" name w
                   (fmt_float (Units.to_sec (window_start t w)))
                   count
                   (fmt_float (dist_sum t name w))
                   (p 50.0) (p 99.0))
            done)
      (names t)
  end;
  Buffer.contents buf

let clear t =
  Hashtbl.iter
    (fun _ s ->
      Array.fill s.sc_ring 0 (Array.length s.sc_ring) 0.0;
      s.sc_last <- -1)
    t.t_scalars;
  Hashtbl.iter
    (fun _ ds ->
      Array.iter reset_dwin ds.ds_ring;
      ds.ds_last <- -1)
    t.t_dists;
  t.t_last <- -1;
  t.t_dropped <- 0
