(* Tests for the host-kernel model: syscall costs, pipes, processes,
   the stage scheduler, TAP devices. *)

open Sim
open Hostos

let check_time = Alcotest.testable Units.pp Units.equal

let test_syscall_costs_ordered () =
  let direct = Syscall.cost Syscall.Read in
  (* gettimeofday is vDSO, cheapest of all. *)
  Alcotest.(check bool) "gtod cheapest" true
    (Units.( < ) (Syscall.cost Syscall.Gettimeofday) direct);
  (* dlmopen dominates every plain syscall. *)
  Alcotest.(check bool) "dlmopen heavy" true
    (Units.( > ) (Syscall.cost Syscall.Dlmopen) (Syscall.cost Syscall.Clone))

let test_pipe_roundtrip () =
  let p = Pipe.create () in
  let data = Bytes.of_string "through the pipe" in
  let n = Pipe.write p data in
  Alcotest.(check int) "all accepted" (Bytes.length data) n;
  Alcotest.(check bytes) "read back" data (Pipe.read p 100);
  Alcotest.(check bool) "drained" true (Pipe.is_empty p)

let test_pipe_capacity () =
  let p = Pipe.create () in
  let big = Bytes.make (Pipe.capacity + 100) 'x' in
  let n = Pipe.write p big in
  Alcotest.(check int) "bounded by capacity" Pipe.capacity n;
  Alcotest.(check int) "full rejects" 0 (Pipe.write p (Bytes.of_string "y"));
  let part = Pipe.read p 1000 in
  Alcotest.(check int) "partial read" 1000 (Bytes.length part);
  Alcotest.(check int) "space reopens" 100 (Pipe.write p (Bytes.make 100 'z'))

let test_pipe_chunks () =
  Alcotest.(check int) "zero" 0 (Pipe.transfer_chunks 0);
  Alcotest.(check int) "one" 1 (Pipe.transfer_chunks 1);
  Alcotest.(check int) "exact" 1 (Pipe.transfer_chunks Pipe.capacity);
  Alcotest.(check int) "two" 2 (Pipe.transfer_chunks (Pipe.capacity + 1))

let test_process_threads () =
  let table = Process.create_table () in
  let pid = Process.spawn_process table ~name:"wfd" () in
  Alcotest.(check int) "one thread" 1 (Process.thread_count table pid);
  let th = Process.clone_thread table pid in
  Alcotest.(check int) "two threads" 2 (Process.thread_count table pid);
  (* The clone charged the main thread's clock. *)
  let main = Process.main_thread table pid in
  Alcotest.check check_time "clone cost" (Syscall.cost Syscall.Clone)
    (Clock.now main.Process.clock);
  Alcotest.check check_time "child starts when clone returns"
    (Clock.now main.Process.clock) (Clock.now th.Process.clock)

let test_process_rss () =
  let table = Process.create_table () in
  let a = Process.spawn_process table ~name:"a" () in
  let b = Process.spawn_process table ~name:"b" () in
  Process.charge_rss table a 1000;
  Process.charge_rss table b 500;
  Alcotest.(check int) "per-process" 1000 (Process.rss table a);
  Alcotest.(check int) "total" 1500 (Process.total_rss table);
  Process.release_rss table a 2000;
  Alcotest.(check int) "release saturates" 0 (Process.rss table a);
  Process.exit_process table a;
  Alcotest.(check int) "exit removes" 1 (Process.live_processes table)

let test_sched_single_core_serialises () =
  let d = Units.ms 10 in
  let placements = Sched.schedule ~cores:1 [ d; d; d ] in
  Alcotest.check check_time "makespan = 3x" (Units.ms 30) (Sched.makespan placements);
  List.iteri
    (fun i p ->
      Alcotest.check check_time
        (Printf.sprintf "task %d start" i)
        (Units.ms (10 * i)) p.Sched.start)
    placements

let test_sched_parallel () =
  let d = Units.ms 10 in
  let placements = Sched.schedule ~cores:4 [ d; d; d ] in
  Alcotest.check check_time "fully parallel" (Units.ms 10) (Sched.makespan placements);
  let cores = List.map (fun p -> p.Sched.core) placements in
  Alcotest.(check int) "distinct cores" 3 (List.length (List.sort_uniq compare cores))

let test_sched_lpt_queueing () =
  (* 2 cores, tasks 10,10,5: third task starts when a core frees. *)
  let placements =
    Sched.schedule ~cores:2 [ Units.ms 10; Units.ms 10; Units.ms 5 ]
  in
  Alcotest.check check_time "queued start" (Units.ms 10)
    (List.nth placements 2).Sched.start;
  (* Both cores free at 10 ms: the lower index takes the queued task. *)
  Alcotest.(check (list int)) "cores alternate" [ 0; 1; 0 ]
    (List.map (fun p -> p.Sched.core) placements);
  Alcotest.check check_time "makespan" (Units.ms 15) (Sched.makespan placements)

let test_sched_ready_and_dispatch () =
  let placements =
    Sched.schedule ~cores:8 ~ready:(Units.ms 5) ~dispatch_latency:(Units.ms 1)
      [ Units.ms 2; Units.ms 2 ]
  in
  Alcotest.check check_time "first starts after ready+1 dispatch" (Units.ms 6)
    (List.nth placements 0).Sched.start;
  Alcotest.check check_time "second waits for its dispatch" (Units.ms 7)
    (List.nth placements 1).Sched.start

let test_sched_fan_in_wait () =
  let placements = Sched.schedule ~cores:4 [ Units.ms 10; Units.ms 4 ] in
  match Sched.fan_in_wait placements with
  | [ w0; w1 ] ->
      Alcotest.check check_time "slowest waits zero" Units.zero w0;
      Alcotest.check check_time "fast one waits" (Units.ms 6) w1
  | _ -> Alcotest.fail "expected two waits"

let test_sched_pool_shared_across_calls () =
  (* A persistent pool carries busy cores between schedule_on calls:
     the second batch queues behind the first. *)
  let pool = Sched.pool ~cores:2 in
  let first = Sched.schedule_on pool [ Units.ms 10; Units.ms 10 ] in
  Alcotest.check check_time "first batch" (Units.ms 10) (Sched.makespan first);
  let second = Sched.schedule_on pool [ Units.ms 5 ] in
  Alcotest.check check_time "second batch queues" (Units.ms 15) (Sched.makespan second);
  Alcotest.check check_time "pool busy horizon" (Units.ms 15) (Sched.busy_until pool);
  Alcotest.(check int) "core count" 2 (Sched.pool_cores pool)

let sched_bounds_property =
  QCheck.Test.make ~name:"sched: max <= makespan <= sum (+dispatch)" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 1 12) (int_range 0 10_000)))
    (fun (cores, durations_us) ->
      let durations = List.map Units.us durations_us in
      let placements = Sched.schedule ~cores durations in
      let makespan = Sched.makespan placements in
      let longest = List.fold_left Units.max Units.zero durations in
      let total = List.fold_left Units.add Units.zero durations in
      Units.( >= ) makespan longest && Units.( <= ) makespan total
      && List.length placements = List.length durations
      && List.for_all (fun p -> p.Sched.core >= 0 && p.Sched.core < cores) placements)

let sched_no_core_overlap_property =
  QCheck.Test.make ~name:"sched: tasks on one core never overlap" ~count:200
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 10) (int_range 1 5_000)))
    (fun (cores, durations_us) ->
      let placements = Sched.schedule ~cores (List.map Units.us durations_us) in
      let by_core = Hashtbl.create 4 in
      List.iter
        (fun p ->
          let prev = try Hashtbl.find by_core p.Sched.core with Not_found -> [] in
          Hashtbl.replace by_core p.Sched.core (p :: prev))
        placements;
      Hashtbl.fold
        (fun _ ps acc ->
          let sorted = List.sort (fun a b -> Units.compare a.Sched.start b.Sched.start) ps in
          let rec ok = function
            | a :: (b :: _ as rest) -> Units.( <= ) a.Sched.finish b.Sched.start && ok rest
            | [ _ ] | [] -> true
          in
          acc && ok sorted)
        by_core true)

let test_cgroup_quota () =
  let half = Cgroup.create ~quota:0.5 in
  Alcotest.check check_time "half quota doubles wall time" (Units.ms 20)
    (Cgroup.stretch half (Units.ms 10));
  Alcotest.check check_time "unlimited is identity" (Units.ms 10)
    (Cgroup.stretch Cgroup.unlimited (Units.ms 10));
  Alcotest.(check (float 1e-9)) "throttled share" 0.75
    (Cgroup.throttled_share (Cgroup.create ~quota:0.25));
  (match Cgroup.create ~quota:0.0 with
  | _ -> Alcotest.fail "quota 0 invalid"
  | exception Invalid_argument _ -> ());
  match Cgroup.create ~quota:1.5 with
  | _ -> Alcotest.fail "quota > 1 invalid"
  | exception Invalid_argument _ -> ()

let test_tap_allocation () =
  let reg = Tap.create () in
  let d1 = Tap.allocate reg in
  let d2 = Tap.allocate reg in
  Alcotest.(check bool) "unique names" true (d1.Tap.name <> d2.Tap.name);
  Alcotest.(check bool) "unique ips" true (d1.Tap.ip <> d2.Tap.ip);
  Alcotest.(check int) "active" 2 (Tap.active reg);
  Tap.release reg d1;
  Alcotest.(check int) "released" 1 (Tap.active reg);
  Alcotest.(check int) "total ever" 2 (Tap.allocated_total reg)

let suite =
  [
    Alcotest.test_case "syscall cost ordering" `Quick test_syscall_costs_ordered;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "pipe capacity" `Quick test_pipe_capacity;
    Alcotest.test_case "pipe chunk accounting" `Quick test_pipe_chunks;
    Alcotest.test_case "process threads" `Quick test_process_threads;
    Alcotest.test_case "process rss" `Quick test_process_rss;
    Alcotest.test_case "sched single core" `Quick test_sched_single_core_serialises;
    Alcotest.test_case "sched parallel" `Quick test_sched_parallel;
    Alcotest.test_case "sched queueing" `Quick test_sched_lpt_queueing;
    Alcotest.test_case "sched ready/dispatch" `Quick test_sched_ready_and_dispatch;
    Alcotest.test_case "sched fan-in wait" `Quick test_sched_fan_in_wait;
    Alcotest.test_case "sched shared pool" `Quick test_sched_pool_shared_across_calls;
    QCheck_alcotest.to_alcotest sched_bounds_property;
    QCheck_alcotest.to_alcotest sched_no_core_overlap_property;
    Alcotest.test_case "cgroup quota" `Quick test_cgroup_quota;
    Alcotest.test_case "tap allocation" `Quick test_tap_allocation;
  ]
