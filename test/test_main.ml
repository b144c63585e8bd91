(* Top-level alcotest runner aggregating every suite. *)

let () =
  Alcotest.run "alloystack"
    [
      ("sim", Test_sim.suite);
      ("mem", Test_mem.suite);
      ("cache", Test_cache.suite);
      ("isa", Test_isa.suite);
      ("hostos", Test_hostos.suite);
      ("net", Test_net.suite);
      ("fs", Test_fs.suite);
      ("wasm", Test_wasm.suite);
      ("vmm", Test_vmm.suite);
      ("core", Test_core.suite);
      ("wfd", Test_wfd.suite);
      ("asbuffer", Test_asbuffer.suite);
      ("visor", Test_visor.suite);
      ("server", Test_server.suite);
      ("workloads", Test_workloads.suite);
      ("platforms", Test_platforms.suite);
      ("resilience", Test_resilience.suite);
      ("fault", Test_fault.suite);
      ("multilang", Test_multilang.suite);
      ("obs", Test_obs.suite);
      ("timeseries", Test_timeseries.suite);
      ("par", Test_par.suite);
      ("eventq", Test_eventq.suite);
      ("loadgen", Test_loadgen.suite);
      ("sampling", Test_sampling.suite);
      ("scale", Test_scale.suite);
      ("sketch", Test_sketch.suite);
      ("soak", Test_soak.suite);
    ]
