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
      (* Concurrent capacity per node: how many workflow instances its
         cores can host at the workflow's widest stage. *)
      let capacity =
        Array.map (fun node -> Stdlib.max 1 (node.cores / Stdlib.max 1 width)) t.nodes
      in
      (* Finish times of in-flight invocations per node, maintained as
         sorted arrays: indexing the (n - capacity)-th finish is O(1)
         and each insert is one binary search + shift, instead of
         re-sorting a list per request. *)
      let inflight = Array.init n_nodes (fun _ -> ref [||]) in
      let insert_sorted cell v =
        let a = !cell in
        let n = Array.length a in
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Units.compare a.(mid) v <= 0 then lo := mid + 1 else hi := mid
        done;
        let b = Array.make (n + 1) v in
        Array.blit a 0 b 0 !lo;
        Array.blit a !lo b (!lo + 1) (n - !lo);
        cell := b
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
            let busy = !(inflight.(node)) in
            let n_busy = Array.length busy in
            let start =
              if n_busy < capacity.(node) then Units.zero
              else begin
                incr queued;
                (* Wait for the (n - capacity)-th finish. *)
                busy.(n_busy - capacity.(node))
              end
            in
            let finish = Units.add start (Units.add scale_cost report.Visor.e2e) in
            insert_sorted inflight.(node) finish;
            finish)
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
