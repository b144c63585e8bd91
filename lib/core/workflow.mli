(** Workflow DAG description.

    What the gateway reads from a JSON configuration: functions (with
    language, parallel instance count and the as-libos modules they
    need) and directed data-dependency edges.  Execution kernels are
    bound separately by name — the config stays declarative, like an
    AWS Step Functions state machine. *)

type language = Rust | C | Python

val pp_language : Format.formatter -> language -> unit
val language_of_string : string -> (language, string) result

type node = {
  node_id : string;
  language : language;
  instances : int;  (** Parallel instances of this function (>= 1). *)
  required_modules : string list;  (** as-libos modules (Table 1). *)
}

type t = private { wf_name : string; nodes : node list; edges : (string * string) list }
(** Built only by {!create}, so every value has passed its checks. *)

val create :
  name:string -> nodes:node list -> edges:(string * string) list -> (t, string) result
(** Validates: at least one node, every required module is an
    as-libos registry name ({!Libos.module_names}), unique ids, edges
    reference existing nodes, instances >= 1, acyclic, and the total
    instance count fits a WFD's {!Mem.Layout.function_slot_count}
    function slots. *)

val create_exn :
  name:string -> nodes:node list -> edges:(string * string) list -> t

val node : t -> string -> node
(** Raises [Not_found]. *)

val stages : t -> node list list
(** Topological layers: every node appears exactly once, and each
    node's predecessors all live in earlier layers. *)

val predecessors : t -> string -> string list
val successors : t -> string -> string list

val required_modules : t -> string list
(** Union over all nodes, deduplicated, registry order preserved. *)

val chain : name:string -> ?language:language -> ?modules:string list -> int -> t
(** [chain ~name n] builds the n-function sequential chain used by the
    FunctionChain benchmark. *)

val to_dot : t -> string
(** Graphviz rendering of the DAG (nodes labelled with language and
    instance count) for documentation and debugging. *)

val of_json : Jsonlite.t -> (t, string) result
val to_json : t -> Jsonlite.t
val of_string : string -> (t, string) result
