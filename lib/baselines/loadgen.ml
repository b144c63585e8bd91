open Sim

type spec = {
  cores : int;
  width : int;
  service : Units.time;
  contention : float;
}

type result = {
  p50 : Units.time;
  p99 : Units.time;
  max_inflight : int;
  mean_sojourn : Units.time;
}

let saturation_qps spec =
  float_of_int spec.cores
  /. (float_of_int spec.width *. Units.to_sec spec.service)

(* --- Streaming open-loop arrival process --------------------------- *)

(* A seeded Poisson process yielding one arrival instant per call.
   State is three words, so a 10^5-request schedule costs the same
   memory as a 10-request one; and the draws are exactly those the old
   materialised generators made (one exponential per arrival, then any
   endpoint pick from the same stream), so for equal seeds the
   schedule is bit-identical. *)
type arrivals = {
  arr_rng : Rng.t;
  arr_mean : float;  (* mean inter-arrival gap, seconds *)
  mutable arr_now : float;  (* elapsed virtual seconds *)
  mutable arr_count : int;
}

let arrivals ?(seed = 17) ~qps () =
  if qps <= 0.0 then invalid_arg "Loadgen.arrivals: qps must be positive";
  { arr_rng = Rng.create seed; arr_mean = 1.0 /. qps; arr_now = 0.0; arr_count = 0 }

let next_arrival a =
  a.arr_now <- a.arr_now +. Rng.exponential a.arr_rng ~mean:a.arr_mean;
  a.arr_count <- a.arr_count + 1;
  Units.ns_f (a.arr_now *. 1e9)

let arrivals_count a = a.arr_count

let request_stream ?seed ~qps ~endpoints ~count () =
  if Array.length endpoints = 0 then
    invalid_arg "Loadgen.request_stream: endpoints must be non-empty";
  if count < 0 then invalid_arg "Loadgen.request_stream: negative count";
  let a = arrivals ?seed ~qps () in
  let remaining = ref count in
  fun () ->
    if !remaining <= 0 then None
    else begin
      decr remaining;
      let at = next_arrival a in
      (* A single-endpoint stream draws nothing for the pick, matching
         the single-endpoint materialised generator. *)
      let ep =
        if Array.length endpoints = 1 then endpoints.(0)
        else Rng.pick a.arr_rng endpoints
      in
      Some (ep, at)
    end

let request_stream_until ?seed ~qps ~endpoints ~horizon () =
  if Array.length endpoints = 0 then
    invalid_arg "Loadgen.request_stream_until: endpoints must be non-empty";
  let a = arrivals ?seed ~qps () in
  let finished = ref false in
  fun () ->
    if !finished then None
    else begin
      let at = next_arrival a in
      if Units.( > ) at horizon then begin
        finished := true;
        None
      end
      else begin
        let ep =
          if Array.length endpoints = 1 then endpoints.(0)
          else Rng.pick a.arr_rng endpoints
        in
        Some (ep, at)
      end
    end

let run ?(seed = 17) spec ~qps ~requests =
  if spec.width > spec.cores then invalid_arg "Loadgen.run: width exceeds cores";
  let arr = arrivals ~seed ~qps () in
  let free = Array.make spec.cores Units.zero in
  (* In-flight bookkeeping is a min-heap of finish times: pop the ones
     at or before [start], and what remains is the in-flight set — no
     O(n) membership filter per request. *)
  let finishes : unit Eventq.t = Eventq.create () in
  let sojourns = Stats.create () in
  let max_inflight = ref 0 in
  for _ = 1 to requests do
    let arrival = next_arrival arr in
    (* The request starts when [width] cores are simultaneously free. *)
    Array.sort Units.compare free;
    let start = Units.max arrival free.(spec.width - 1) in
    let rec expire () =
      if (not (Eventq.is_empty finishes)) && not (Units.( > ) (Eventq.next_at finishes) start)
      then begin
        Eventq.pop finishes;
        expire ()
      end
    in
    expire ();
    let inflight = Eventq.length finishes in
    max_inflight := Stdlib.max !max_inflight (inflight + 1);
    let duration =
      Units.scale spec.service (1.0 +. (spec.contention *. float_of_int inflight))
    in
    let finish = Units.add start duration in
    for i = 0 to spec.width - 1 do
      free.(i) <- finish
    done;
    Eventq.push finishes ~at:finish ();
    Stats.add_time sojourns (Units.sub finish arrival)
  done;
  {
    p50 = Stats.percentile_time sojourns 50.0;
    p99 = Stats.percentile_time sojourns 99.0;
    max_inflight = !max_inflight;
    mean_sojourn = Stats.mean_time sojourns;
  }
