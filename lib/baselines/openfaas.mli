(** OpenFaaS as a {!Platform.t}.

    The container-based, fundamental serverless software stack: one
    container per function instance (boot on every cold start),
    intermediate data forwarded through a Redis store over the
    simulated network ("third-party forwarding"), and a gateway in
    front of the functions.

    The gVisor variant replaces runc with runsc: slower boot, ptrace
    syscall interception and I/O slowdown. *)

val openfaas : Platform.t
val openfaas_gvisor : Platform.t

(** Containers already running: only the gateway/provider/watchdog
    invocation path is paid per function call (steady-state). *)
val openfaas_warm : Platform.t
