open Sim

let profile =
  {
    Sandbox.name = "gVisor";
    stages =
      [
        { Sandbox.label = "OCI create (runsc)"; cost = Units.ms 74 };
        { label = "Go runtime start"; cost = Units.ms 52 };
        { label = "sentry init (ptrace)"; cost = Units.ms 196 };
        { label = "gofer mounts"; cost = Units.ms 83 };
        { label = "app spawn + runtime"; cost = Units.ms 43 };
      ];
    mem_overhead = 64 * 1024 * 1024;
    cpu_tax = 0.09;
  }
