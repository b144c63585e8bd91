open Sim

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
  | Dlmopen
  | Userfaultfd

(* Direct-path costs (ns).  Small syscalls on a ~2GHz Xeon are in the
   0.3-1.5us range; mmap/clone are heavier; dlmopen dominates because it
   opens, maps and relocates an ELF namespace. *)
let direct_ns = function
  | Gettimeofday -> 60 (* vDSO *)
  | Read | Write -> 450
  | Open -> 1_300
  | Close -> 400
  | Mmap -> 1_800
  | Munmap -> 1_500
  | Mprotect -> 1_100
  | Pkey_mprotect -> 1_250
  | Pkey_alloc -> 700
  | Clone -> 28_000
  | Futex -> 550
  | Pipe2 -> 1_400
  | Socket -> 1_900
  | Bind -> 900
  | Listen -> 700
  | Connect -> 14_000
  | Accept -> 9_000
  | Sendto -> 1_700
  | Recvfrom -> 1_600
  | Epoll_wait -> 1_100
  | Dlmopen -> 380_000
  | Userfaultfd -> 2_200

let cost name = Units.ns (direct_ns name)
