open Sim

let bare_boot = Units.ms 9

let profile =
  {
    Sandbox.name = "Unikernel";
    stages =
      [
        { Sandbox.label = "firecracker spawn"; cost = Units.ms 31 };
        { label = "image load"; cost = Units.ms 68 };
        { label = "virtio setup"; cost = Units.ms 29 };
        { label = "unikernel boot"; cost = bare_boot };
      ];
    mem_overhead = 8 * 1024 * 1024;
    cpu_tax = 0.02;
  }
