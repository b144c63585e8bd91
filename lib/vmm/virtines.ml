open Sim

let profile =
  {
    Sandbox.name = "Virtines";
    stages =
      [
        { Sandbox.label = "KVM vm create"; cost = Units.ms_f 9.4 };
        { label = "context snapshot load"; cost = Units.ms_f 8.1 };
        { label = "vcpu start + entry"; cost = Units.ms_f 5.3 };
      ];
    mem_overhead = 4 * 1024 * 1024;
    cpu_tax = 0.03;
  }
