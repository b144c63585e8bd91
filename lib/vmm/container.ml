open Sim

let mib n = n * 1024 * 1024

let runc =
  {
    Sandbox.name = "Container";
    stages =
      [
        { Sandbox.label = "containerd dispatch"; cost = Units.ms 102 };
        { label = "cgroup + netns setup"; cost = Units.ms 188 };
        { label = "runc create/start"; cost = Units.ms 154 };
        { label = "of-watchdog + runtime"; cost = Units.ms 118 };
      ];
    mem_overhead = mib 24;
    cpu_tax = 0.0;
  }

let kata_firecracker =
  {
    Sandbox.name = "Kata";
    stages =
      [
        { Sandbox.label = "containerd + kata shim"; cost = Units.ms 121 };
        { label = "firecracker spawn"; cost = Units.ms 33 };
        { label = "guest kernel boot"; cost = Units.ms 142 };
        { label = "kata-agent + rootfs"; cost = Units.ms 287 };
        { label = "container runtime"; cost = Units.ms 131 };
      ];
    mem_overhead = mib 142;
    cpu_tax = 0.05;
  }
