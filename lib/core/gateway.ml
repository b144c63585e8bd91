open Sim

type node = { node_name : string; cores : int }

type registration = {
  workflow : Workflow.t;
  bindings : (string * Visor.binding) list;
}

type t = {
  nodes : node array;
  table : (string, registration) Hashtbl.t;
  admission : Visor.admission_cache;
      (* Shared across endpoints: re-registered or re-invoked images
         skip the blacklist scan (verdicts are pure over content). *)
  mutable rr : int;
  mutable invocations : int;
  mutable last_node : string option;
}

let create ?(nodes = [ { node_name = "node0"; cores = 64 } ]) () =
  if nodes = [] then invalid_arg "Gateway.create: need at least one node";
  {
    nodes = Array.of_list nodes;
    table = Hashtbl.create 8;
    admission = Visor.admission_cache ();
    rr = 0;
    invocations = 0;
    last_node = None;
  }

let register t ~endpoint ~workflow ~bindings () =
  if Hashtbl.mem t.table endpoint then
    invalid_arg (Printf.sprintf "Gateway.register: endpoint %s already bound" endpoint);
  Hashtbl.replace t.table endpoint { workflow; bindings }

let register_json t ~endpoint ~config_json ~bindings () =
  match Workflow.of_string config_json with
  | Error e -> Error e
  | Ok workflow ->
      register t ~endpoint ~workflow ~bindings ();
      Ok ()

let endpoints t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

(* Node-local visor config: the node's core count and the gateway's
   shared admission cache. *)
let node_config t ~cores =
  { Visor.default_config with Visor.cores; admission = Some t.admission }

let invoke t ~endpoint =
  match Hashtbl.find_opt t.table endpoint with
  | None -> raise Not_found
  | Some reg ->
      let node = t.nodes.(t.rr mod Array.length t.nodes) in
      t.rr <- t.rr + 1;
      t.invocations <- t.invocations + 1;
      t.last_node <- Some node.node_name;
      let config = node_config t ~cores:node.cores in
      Visor.run ~config ~workflow:reg.workflow ~bindings:reg.bindings ()

let response_body (report : Visor.report) =
  Jsonlite.to_string
    (Jsonlite.Obj
       [
         ("e2e_us", Jsonlite.Float (Units.to_us report.Visor.e2e));
         ("cold_start_us", Jsonlite.Float (Units.to_us report.Visor.cold_start));
         ("entry_misses", Jsonlite.Int report.Visor.entry_misses);
         ("stdout", Jsonlite.String report.Visor.stdout);
       ])

let handle_http t (req : Netsim.Http.request) =
  let wf_prefix = "/wf/" in
  if String.equal req.Netsim.Http.path "/healthz" then Netsim.Http.ok "ok"
  else if
    String.equal req.Netsim.Http.meth "POST"
    && String.length req.Netsim.Http.path > String.length wf_prefix
    && String.sub req.Netsim.Http.path 0 (String.length wf_prefix) = wf_prefix
  then begin
    let endpoint =
      String.sub req.Netsim.Http.path (String.length wf_prefix)
        (String.length req.Netsim.Http.path - String.length wf_prefix)
    in
    match invoke t ~endpoint with
    | report ->
        Netsim.Http.ok
          ~headers:[ ("Content-Type", "application/json") ]
          (response_body report)
    | exception Not_found -> Netsim.Http.error_response 404 "unknown workflow"
    | exception Visor.Admission_failed reason ->
        Netsim.Http.error_response 403 reason
  end
  else Netsim.Http.error_response 404 "not found"

type burst_report = {
  latencies : Units.time list;
  p99 : Units.time;
  queued : int;
  per_node : (string * int) list;
}

let workflow_width (wf : Workflow.t) =
  List.fold_left
    (fun acc stage ->
      Stdlib.max acc
        (List.fold_left (fun a (n : Workflow.node) -> a + n.Workflow.instances) 0 stage))
    1 (Workflow.stages wf)

let invoke_burst t ~endpoint ~count =
  match Hashtbl.find_opt t.table endpoint with
  | None -> raise Not_found
  | Some reg ->
      let width = workflow_width reg.workflow in
      let n_nodes = Array.length t.nodes in
      (* A node hosts as many concurrent workflow instances as its cores
         allow at the workflow's widest stage: that many slots, onto
         which its invocations are list-scheduled in arrival order. *)
      let slots =
        Array.map
          (fun node ->
            Hostos.Sched.pool ~cores:(Stdlib.max 1 (node.cores / Stdlib.max 1 width)))
          t.nodes
      in
      let per_node = Array.make n_nodes 0 in
      let queued = ref 0 in
      let latencies =
        List.init count (fun i ->
            let node = i mod n_nodes in
            per_node.(node) <- per_node.(node) + 1;
            (* Scaling a warm node: the extra instance maps fresh
               function memory via dlmopen. *)
            let scale_cost =
              if per_node.(node) > 1 then Cost.dlmopen_namespace else Units.zero
            in
            let config = node_config t ~cores:t.nodes.(node).cores in
            let report = Visor.run ~config ~workflow:reg.workflow ~bindings:reg.bindings () in
            t.invocations <- t.invocations + 1;
            (* Past its node's capacity, an invocation waits for the
               earliest free slot. *)
            if per_node.(node) > Hostos.Sched.pool_cores slots.(node) then incr queued;
            Hostos.Sched.makespan_on slots.(node) ~ready:Units.zero
              ~dispatch_latency:Units.zero
              [ Units.add scale_cost report.Visor.e2e ])
      in
      let stats = Sim.Stats.create () in
      List.iter (Sim.Stats.add_time stats) latencies;
      {
        latencies;
        p99 = Sim.Stats.percentile_time stats 99.0;
        queued = !queued;
        per_node =
          Array.to_list (Array.mapi (fun i n -> (t.nodes.(i).node_name, n)) per_node);
      }

let invocations t = t.invocations
let last_node t = t.last_node
let admission t = t.admission
