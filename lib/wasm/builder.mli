(** Convenience constructors for writing bytecode programs (workload
    kernels, tests, examples) without spelling out the AST. *)

val const : int -> Instr.t
val add : Instr.t
val sub : Instr.t
val mul : Instr.t
val div : Instr.t
val rem : Instr.t
val le : Instr.t
val eq : Instr.t
val ne : Instr.t
val local : int -> Instr.t
val tee : int -> Instr.t

val func :
  name:string -> ?params:int -> ?locals:int -> Instr.t list -> Wmodule.func

(** {1 Ready-made kernels used by tests and micro-benches} *)

val sum_to_n : Wmodule.t
(** export "sum": sum of 1..n. *)

val fib : Wmodule.t
(** export "fib": naive recursion. *)

val memory_fill : Wmodule.t
(** export "fill": fill [0, n) of linear memory with a byte value —
    exercises stores; export "checksum": byte sum of [0, n). *)

val bubble_sort : Wmodule.t
(** export "sort": in-place byte sort of memory [0, n) — a real (if
    quadratic) kernel used to compare runtimes on actual work. *)
