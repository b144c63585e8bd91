(* Tests for the sandbox boot models (Fig. 2 / Fig. 10 calibration). *)

open Sim
open Vmm

let total_ms p = Units.to_ms (Sandbox.total p)

let test_fig2_calibration () =
  (* Fig. 2: QEMU ~1817ms, MicroVM ~1186ms, Unikernel ~137ms,
     Virtines ~23ms. *)
  let within label low high v =
    if v < low || v > high then
      Alcotest.fail (Printf.sprintf "%s boot %.1fms outside [%.0f, %.0f]" label v low high)
  in
  within "QEMU" 1750.0 1900.0 (total_ms Microvm.qemu_full);
  within "MicroVM" 1130.0 1240.0 (total_ms Microvm.trimmed);
  within "Unikernel" 125.0 150.0 (total_ms Unikraft.profile);
  within "Virtines" 21.0 25.0 (total_ms Virtines.profile)

let test_fig2_ordering () =
  let q = total_ms Microvm.qemu_full
  and m = total_ms Microvm.trimmed
  and u = total_ms Unikraft.profile
  and v = total_ms Virtines.profile in
  Alcotest.(check bool) "trimming helps monotonically" true (q > m && m > u && u > v)

let test_boot_advances_clock () =
  let clock = Clock.create () in
  let report = Sandbox.boot Gvisor.profile clock in
  Alcotest.(check bool) "clock = total" true
    (Units.equal (Clock.now clock) report.Sandbox.total_time);
  Alcotest.(check int) "all stages reported"
    (List.length Gvisor.profile.Sandbox.stages)
    (List.length report.Sandbox.stage_times)

let test_boot_sequential_composition () =
  (* Booting twice accumulates. *)
  let clock = Clock.create () in
  ignore (Sandbox.boot Virtines.profile clock);
  ignore (Sandbox.boot Virtines.profile clock);
  Alcotest.(check bool) "two boots" true
    (Units.equal (Clock.now clock) (Units.scale (Sandbox.total Virtines.profile) 2.0))

let test_serverless_firecracker () =
  (* The ~200ms serverless MicroVM of [63]. *)
  let t = total_ms Microvm.firecracker_serverless in
  Alcotest.(check bool) "about 200ms" true (t > 180.0 && t < 220.0)

let test_kata_heavier_than_runc () =
  Alcotest.(check bool) "kata boot > runc boot" true
    (total_ms Container.kata_firecracker > total_ms Container.runc);
  Alcotest.(check bool) "kata has guest-kernel memory overhead" true
    (Container.kata_firecracker.Sandbox.mem_overhead > Container.runc.Sandbox.mem_overhead)

let suite =
  [
    Alcotest.test_case "Fig.2 calibration" `Quick test_fig2_calibration;
    Alcotest.test_case "Fig.2 ordering" `Quick test_fig2_ordering;
    Alcotest.test_case "boot advances clock" `Quick test_boot_advances_clock;
    Alcotest.test_case "boots compose" `Quick test_boot_sequential_composition;
    Alcotest.test_case "serverless firecracker ~200ms" `Quick test_serverless_firecracker;
    Alcotest.test_case "kata vs runc" `Quick test_kata_heavier_than_runc;
  ]
