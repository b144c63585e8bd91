(** Multi-node deployment (§9 of the paper): a workflow too large for
    one node is split into multiple WFDs along stage boundaries, each
    deployed on its own node.  Within a WFD, intermediate data still
    moves by reference; across WFDs it falls back to "traditional"
    transfer — serialised and shipped over the datacenter network —
    exactly the trade-off the paper describes.

    The split is the manual, contiguous-stages split the paper
    supports ("developers can manually divide the DAG"). *)

val make : nodes:int -> unit -> Platform.t
(** [make ~nodes ()] runs an app's stages in [nodes] contiguous groups,
    one WFD per node.  [nodes = 1] is equivalent to plain AlloyStack.
    A payload crossing a WFD boundary costs {!bridge_cost}. *)

val split_stages : 'a list -> parts:int -> 'a list list
(** Contiguous, balanced split (exposed for tests): concatenation of
    the result equals the input, length = [min parts (length list)]. *)

val bridge_cost : int -> Sim.Units.time
(** One cross-WFD handoff of [n] bytes: serialisation at both ends plus
    the wire time on the datacenter link. *)
