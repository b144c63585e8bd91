open Sim

let mib n = n * 1024 * 1024

let qemu_full =
  {
    Sandbox.name = "QEMU";
    stages =
      [
        { Sandbox.label = "vmm process start"; cost = Units.ms 95 };
        { label = "BIOS + option ROMs"; cost = Units.ms 210 };
        { label = "device model (PCI, legacy)"; cost = Units.ms 420 };
        { label = "guest kernel boot"; cost = Units.ms 612 };
        { label = "init + rootfs mount"; cost = Units.ms 330 };
        { label = "runtime init"; cost = Units.ms 150 };
      ];
    mem_overhead = mib 512;
    cpu_tax = 0.06;
  }

let trimmed =
  {
    Sandbox.name = "MicroVM";
    stages =
      [
        { Sandbox.label = "vmm process start"; cost = Units.ms 48 };
        { label = "virtio device setup"; cost = Units.ms 96 };
        { label = "guest kernel boot"; cost = Units.ms 586 };
        { label = "init + rootfs mount"; cost = Units.ms 306 };
        { label = "runtime init"; cost = Units.ms 150 };
      ];
    mem_overhead = mib 168;
    cpu_tax = 0.05;
  }

let firecracker_serverless =
  {
    Sandbox.name = "Firecracker";
    stages =
      [
        { Sandbox.label = "vmm process start"; cost = Units.ms 22 };
        { label = "virtio device setup"; cost = Units.ms 11 };
        { label = "minimal guest kernel boot"; cost = Units.ms 118 };
        { label = "init + runtime"; cost = Units.ms 49 };
      ];
    mem_overhead = mib 96;
    cpu_tax = 0.05;
  }
