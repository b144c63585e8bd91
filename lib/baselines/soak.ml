open Sim
module Server = Alloystack_core.Visor.Server

type snapshot = {
  sn_at : int;
  sn_completed : int;
  sn_inflight : int;
  sn_live_words : int;
  sn_p50 : Units.time;
  sn_p99 : Units.time;
  sn_alerts : Slo.alert list;
}

let enable_telemetry server ~seconds ~slos =
  Server.enable_telemetry server
    ~window:(Units.sec (Stdlib.max 1 (seconds / 256)))
    ~retention:64 ~slos ()

type result = { snapshots : snapshot list; latency : Stats.t; summary : Server.summary }

let render sn =
  String.concat ""
    (Printf.sprintf
       "soak t=%5ds: completed %8d, inflight %4d, live %9d words, p50 %8.1f us, p99 %9.1f us\n"
       sn.sn_at sn.sn_completed sn.sn_inflight sn.sn_live_words (Units.to_us sn.sn_p50)
       (Units.to_us sn.sn_p99)
    :: List.map (fun a -> Printf.sprintf "  %s\n" (Slo.render_alert a)) sn.sn_alerts)

let run server ~seed ~qps ~endpoints ~seconds =
  let snap_s = Stdlib.max 1 (seconds / 12) in
  let next =
    Loadgen.request_stream_until ~seed ~qps ~endpoints ~horizon:(Units.sec seconds) ()
  in
  (* Arrival instants pulled by the planner, drained as virtual time
     passes: [arrived - finished] is the exact in-flight count at each
     snapshot. *)
  let pulled : Units.time Queue.t = Queue.create () in
  let stream () =
    match next () with
    | None -> None
    | Some (endpoint, arrival) ->
        Queue.push arrival pulled;
        Some { Server.endpoint; arrival }
  in
  let latency = Stats.sketched () in
  let finished = ref 0 and arrived = ref 0 in
  let next_snap = ref snap_s in
  let alerts_seen = ref 0 in
  let snaps = ref [] in
  let pct p = if Stats.is_empty latency then Units.zero else Stats.percentile_time latency p in
  let (), summary =
    Server.serve_fold server stream ~init:() ~f:(fun () (p : Server.response) ->
        incr finished;
        if p.Server.r_ok then Stats.add_time latency p.Server.r_latency;
        let now_s = Units.to_sec p.Server.r_finish in
        if now_s >= float_of_int !next_snap then begin
          while (not (Queue.is_empty pulled)) && Units.to_sec (Queue.peek pulled) <= now_s do
            ignore (Queue.pop pulled);
            incr arrived
          done;
          Gc.full_major ();
          let live = (Gc.stat ()).Gc.live_words in
          let alerts = Server.slo_alerts server in
          let sn =
            {
              sn_at = !next_snap;
              sn_completed = !finished;
              sn_inflight = !arrived - !finished;
              sn_live_words = live;
              sn_p50 = pct 50.0;
              sn_p99 = pct 99.0;
              sn_alerts = List.filteri (fun i _ -> i >= !alerts_seen) alerts;
            }
          in
          alerts_seen := List.length alerts;
          snaps := sn :: !snaps;
          print_string (render sn);
          flush stdout;
          while float_of_int !next_snap <= now_s do
            next_snap := !next_snap + snap_s
          done
        end)
  in
  { snapshots = List.rev !snaps; latency; summary }

type verdict = { first : int; worst : int; flat : bool }

let memory_verdict = function
  | ({ sn_live_words = first; _ } :: _ :: _) as snaps ->
      let n = List.length snaps in
      let worst =
        List.fold_left Stdlib.max 0
          (List.filteri (fun i _ -> i >= n / 2) (List.map (fun s -> s.sn_live_words) snaps))
      in
      Some { first; worst; flat = float_of_int worst <= (1.25 *. float_of_int first) +. 1e6 }
  | _ -> None
