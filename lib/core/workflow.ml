type language = Rust | C | Python

let pp_language fmt l =
  Format.pp_print_string fmt
    (match l with Rust -> "rust" | C -> "c" | Python -> "python")

let language_of_string = function
  | "rust" | "Rust" -> Ok Rust
  | "c" | "C" -> Ok C
  | "python" | "Python" | "py" -> Ok Python
  | other -> Error (Printf.sprintf "unknown language %S" other)

type node = {
  node_id : string;
  language : language;
  instances : int;
  required_modules : string list;
}

type t = { wf_name : string; nodes : node list; edges : (string * string) list }

let validate t =
  let ids = List.map (fun n -> n.node_id) t.nodes in
  let id_set = Hashtbl.create 16 in
  let dup =
    List.find_opt
      (fun id ->
        if Hashtbl.mem id_set id then true
        else begin
          Hashtbl.replace id_set id ();
          false
        end)
      ids
  in
  match dup with
  | Some id -> Error (Printf.sprintf "duplicate node id %S" id)
  | None -> begin
      let bad_edge =
        List.find_opt
          (fun (a, b) -> not (Hashtbl.mem id_set a && Hashtbl.mem id_set b))
          t.edges
      in
      match bad_edge with
      | Some (a, b) -> Error (Printf.sprintf "edge %s->%s references unknown node" a b)
      | None -> begin
          let bad_node = List.find_opt (fun n -> n.instances < 1) t.nodes in
          match bad_node with
          | Some n -> Error (Printf.sprintf "node %s has instances < 1" n.node_id)
          | None ->
              (* Cycle check via Kahn's algorithm. *)
              let indegree = Hashtbl.create 16 in
              List.iter (fun id -> Hashtbl.replace indegree id 0) ids;
              List.iter
                (fun (_, b) -> Hashtbl.replace indegree b (Hashtbl.find indegree b + 1))
                t.edges;
              let queue = Queue.create () in
              List.iter (fun id -> if Hashtbl.find indegree id = 0 then Queue.add id queue) ids;
              let seen = ref 0 in
              while not (Queue.is_empty queue) do
                let id = Queue.pop queue in
                incr seen;
                List.iter
                  (fun (a, b) ->
                    if String.equal a id then begin
                      let d = Hashtbl.find indegree b - 1 in
                      Hashtbl.replace indegree b d;
                      if d = 0 then Queue.add b queue
                    end)
                  t.edges
              done;
              if !seen <> List.length ids then Error "workflow DAG contains a cycle"
              else Ok t
        end
    end

(* What a WFD cannot run would otherwise surface only mid-run: an
   unknown module when the first request builds the WFD template, and
   more instances than function slots (each instance holds one for
   the WFD's lifetime) when a spawn runs out of them. *)
let create ~name ~nodes ~edges =
  let unknown n =
    List.find_opt (fun m -> not (List.mem m Libos.module_names)) n.required_modules
    |> Option.map (fun m -> (n.node_id, m))
  in
  let slots = Mem.Layout.function_slot_count in
  match List.find_map unknown nodes with
  | Some (id, m) -> Error (Printf.sprintf "node %s requires unknown as-libos module %S" id m)
  | None when nodes = [] -> Error "workflow has no functions"
  | None -> (
      match validate { wf_name = name; nodes; edges } with
      | Ok _ as ok ->
          let instances = List.fold_left (fun acc n -> acc + n.instances) 0 nodes in
          if instances <= slots then ok
          else
            Error
              (Printf.sprintf
                 "workflow has %d function instances but a WFD has %d function slots"
                 instances slots)
      | Error _ as e -> e)

let create_exn ~name ~nodes ~edges =
  match create ~name ~nodes ~edges with
  | Ok t -> t
  | Error e -> invalid_arg ("Workflow.create_exn: " ^ e)

let node t id =
  match List.find_opt (fun n -> String.equal n.node_id id) t.nodes with
  | Some n -> n
  | None -> raise Not_found

let predecessors t id =
  List.filter_map (fun (a, b) -> if String.equal b id then Some a else None) t.edges

let successors t id =
  List.filter_map (fun (a, b) -> if String.equal a id then Some b else None) t.edges

let stages t =
  (* Longest-path layering: a node's layer is 1 + max of predecessors. *)
  let layer = Hashtbl.create 16 in
  let rec layer_of id =
    match Hashtbl.find_opt layer id with
    | Some l -> l
    | None ->
        let preds = predecessors t id in
        let l =
          match preds with
          | [] -> 0
          | _ -> 1 + List.fold_left (fun acc p -> Stdlib.max acc (layer_of p)) 0 preds
        in
        Hashtbl.replace layer id l;
        l
  in
  List.iter (fun n -> ignore (layer_of n.node_id)) t.nodes;
  let max_layer = Hashtbl.fold (fun _ l acc -> Stdlib.max acc l) layer 0 in
  List.init (max_layer + 1) (fun i ->
      List.filter (fun n -> Hashtbl.find layer n.node_id = i) t.nodes)

let required_modules t =
  List.fold_left
    (fun acc n ->
      List.fold_left
        (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
        acc n.required_modules)
    [] t.nodes

let chain ~name ?(language = Rust) ?(modules = [ "mm"; "stdio"; "time" ]) n =
  if n < 1 then invalid_arg "Workflow.chain: need at least one function";
  let nodes =
    List.init n (fun i ->
        {
          node_id = Printf.sprintf "fn%d" i;
          language;
          instances = 1;
          required_modules = modules;
        })
  in
  let edges =
    List.init (n - 1) (fun i -> (Printf.sprintf "fn%d" i, Printf.sprintf "fn%d" (i + 1)))
  in
  create_exn ~name ~nodes ~edges

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=LR;\n" t.wf_name);
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  %S [label=\"%s\\n%s x%d\"];\n" n.node_id n.node_id
           (Format.asprintf "%a" pp_language n.language)
           n.instances))
    t.nodes;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  %S -> %S;\n" a b))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let node_of_json j =
  let open Jsonlite in
  let node_id = member_string "name" j in
  let language =
    match language_of_string (member_string ~default:"rust" "language" j) with
    | Ok l -> l
    | Error e -> invalid_arg e
  in
  let instances = member_int ~default:1 "instances" j in
  let required_modules = List.map get_string (member_list "modules" j) in
  { node_id; language; instances; required_modules }

let of_json j =
  match
    let open Jsonlite in
    let name = member_string "workflow" j in
    let nodes = List.map node_of_json (member_list "functions" j) in
    let edges =
      List.map
        (fun e ->
          (Jsonlite.member_string "from" e, Jsonlite.member_string "to" e))
        (member_list "edges" j)
    in
    create ~name ~nodes ~edges
  with
  | result -> result
  | exception Invalid_argument e -> Error e

let to_json t =
  let open Jsonlite in
  Obj
    [
      ("workflow", String t.wf_name);
      ( "functions",
        List
          (List.map
             (fun n ->
               Obj
                 [
                   ("name", String n.node_id);
                   ("language", String (Format.asprintf "%a" pp_language n.language));
                   ("instances", Int n.instances);
                   ("modules", List (List.map (fun m -> String m) n.required_modules));
                 ])
             t.nodes) );
      ( "edges",
        List
          (List.map
             (fun (a, b) -> Obj [ ("from", String a); ("to", String b) ])
             t.edges) );
    ]

let of_string s =
  match Jsonlite.parse_result s with
  | Error e -> Error e
  | Ok j -> of_json j
