(** Host-kernel syscall cost model.

    Baseline per-call overheads for a modern Xeon under Linux ~6.5.
    Values are entry/exit plus typical in-kernel work for a small
    request; bulk data movement is charged separately by the caller at
    the relevant bandwidth.  Sandbox interception (gVisor's ptrace
    platform, a MicroVM's VM exits) is not charged here: the baseline
    platforms model it as CPU tax and I/O slowdown — the paper
    measures ~50% of gVisor runtime CPU in kernel mode (§8.2). *)

type name =
  | Open
  | Close
  | Read
  | Write
  | Mmap
  | Munmap
  | Mprotect
  | Pkey_mprotect
  | Pkey_alloc
  | Clone
  | Futex
  | Pipe2
  | Socket
  | Bind
  | Listen
  | Connect
  | Accept
  | Sendto
  | Recvfrom
  | Epoll_wait
  | Gettimeofday
  | Dlmopen  (** Not a syscall, but the loader path is charged here. *)
  | Userfaultfd

val cost : name -> Sim.Units.time
(** Per-call latency of a direct host syscall. *)
