(** as-std: the standard library layer user functions link against
    (§3.5).

    Every API below (1) checks the WFD entry table and triggers the
    on-demand loader on a miss, (2) crosses the MPK trampoline into the
    system partition, (3) runs the as-libos implementation, and (4)
    returns through the trampoline.  User code never issues a syscall
    itself — its image must not even contain the opcode (§6). *)

type ctx = {
  wfd : Wfd.t;
  thread : Wfd.thread;
  language : Workflow.language;
  buffer_bw : float;  (** Buffer copy bandwidth of this language path. *)
  compute_factor : float;  (** Slowdown vs native Rust for pure compute. *)
  mutable phases : (string, Sim.Units.time) Hashtbl.t option;
      (** Fig. 15 accounting: virtual time per phase name.  [None]
          until the first {!in_phase}, so a kernel that names no phase
          costs no table. *)
}

val make_ctx : Wfd.t -> Wfd.thread -> Workflow.language -> ctx
(** Context for a Rust-native function (factor 1.0); WASM-hosted
    languages get their factors from the platform layer via
    {!with_runtime}. *)

val load_wasm : ctx -> Wasm.Runtime.profile -> Wasm.Wmodule.t -> Wasm.Runtime.loaded
(** {!Wasm.Runtime.load} on the calling thread's clock, through the
    process-wide {!Wasm.Compile_cache.global} and the WFD's fault plan.
    The cache saves host compiles only: the virtual compile cost is
    charged on every load. *)

val with_runtime : ctx -> Wasm.Runtime.profile -> ctx
(** Adjust bandwidth/compute factors for a WASM-hosted language. *)

val with_span : ctx -> category:string -> label:string -> (unit -> 'a) -> 'a
(** Run the thunk under a fresh {!Sim.Span} on the calling thread's
    clock, installed as the WFD's current trace context and as the
    ambient parent for substrate layers.  One branch when tracing is
    off. *)

val sys : ctx -> string -> (clock:Sim.Clock.t -> 'a) -> 'a
(** [sys ctx entry f]: the full as-std call path for entry [entry] —
    entry-table check (slow path loads the module), trampoline in, run
    [f] with the thread's clock, trampoline out.  Traced as a
    ["network"] span for socket entries, an ["io"] span otherwise. *)

(** {1 File API (Fig. 5 style)} *)

val open_file : ctx -> ?create:bool -> string -> int
(** Raises {!Errno.Error}. *)

val read_fd : ctx -> fd:int -> len:int -> bytes
val write_fd : ctx -> fd:int -> bytes -> int
val close_fd : ctx -> fd:int -> unit
val read_whole_file : ctx -> string -> bytes
val write_whole_file : ctx -> string -> bytes -> unit
val file_exists : ctx -> string -> bool

(** {1 Console / time} *)

val println : ctx -> string -> unit
val now_ns : ctx -> int64

(** {1 Network} *)

val tcp_connect_fd : ctx -> ip:string -> port:int -> int
(** Connect over the WFD's socket module and install the connection
    in its fd table, so it is usable through plain {!read_fd}/{!write_fd}
    (the Fig. 5 HTTP-client style). *)

(** {1 Compute accounting} *)

val compute : ctx -> Sim.Units.time -> unit
(** Charge pure computation measured in native-Rust time; the context's
    language factor is applied. *)

val compute_bytes : ctx -> per_byte_ns:float -> int -> unit

val in_phase : ctx -> string -> (unit -> 'a) -> 'a
(** Attribute the virtual time spent in the thunk to a named phase
    (read / compute / transfer — Fig. 15). *)

val phase_time : ctx -> string -> Sim.Units.time
