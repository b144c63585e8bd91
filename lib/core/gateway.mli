(** The AlloyStack gateway: binds workflows to HTTP endpoints, balances
    invocations across nodes, and executes them (§3.2, §7.1: "a gateway
    that triggers via CLI and HTTP and executes workflows from JSON
    configurations"). *)

type node = { node_name : string; cores : int }

type t

val create : ?nodes:node list -> unit -> t
(** Default: one 64-core node (the paper's testbed). *)

val register :
  t ->
  endpoint:string ->
  workflow:Workflow.t ->
  bindings:(string * Visor.binding) list ->
  unit ->
  unit
(** Bind a workflow to [/wf/<endpoint>].  It runs with
    {!Visor.default_config} on the chosen node's cores, through the
    gateway's shared admission cache.  Raises [Invalid_argument] on a
    duplicate endpoint. *)

val register_json :
  t ->
  endpoint:string ->
  config_json:string ->
  bindings:(string * Visor.binding) list ->
  unit ->
  (unit, string) result
(** Parse the workflow from its JSON configuration, then register. *)

val endpoints : t -> string list

val invoke : t -> endpoint:string -> Visor.report
(** CLI-style trigger: run the workflow on the next node (round
    robin).  Raises [Not_found] for an unknown endpoint. *)

val handle_http : t -> Netsim.Http.request -> Netsim.Http.response
(** The watchdog's HTTP surface:
    - [POST /wf/<endpoint>] runs the workflow, answering 200 with a
      JSON body carrying e2e/cold-start times and the workflow stdout;
    - [GET /healthz] answers 200 "ok";
    - unknown paths answer 404. *)

(** {1 Elasticity (§9)}

    When concurrent invocations exceed a node's capacity, AlloyStack
    scales function-level resources by creating more threads and
    mappings (dlmopen) inside the WFDs; beyond a node's cores the
    gateway spills invocations to other nodes, and past total capacity
    they queue. *)

type burst_report = {
  latencies : Sim.Units.time list;  (** Per-invocation sojourn times. *)
  p99 : Sim.Units.time;
  queued : int;  (** Invocations that had to wait for capacity. *)
  per_node : (string * int) list;  (** Invocations placed per node. *)
}

val invoke_burst : t -> endpoint:string -> count:int -> burst_report
(** Fire [count] simultaneous invocations of the endpoint,
    round-robin over the nodes.  Each runs for real; a node has
    [cores / workflow width] slots (a {!Hostos.Sched.pool}) and
    list-schedules its invocations onto them, so an invocation past
    that capacity queues for the earliest free slot.  Scaling an
    already-warm node charges the dlmopen cost of the new function
    mappings. *)

val invocations : t -> int
val last_node : t -> string option

val admission : t -> Visor.admission_cache
(** The gateway's shared admission cache (hit/scan counters). *)
