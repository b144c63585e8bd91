(* Tests for core leaf modules: JSON parsing, FaasData, workflow DAGs,
   cost-model invariants, the extension map. *)

open Alloystack_core

(* --- Jsonlite --- *)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (Jsonlite.parse "null" = Jsonlite.Null);
  Alcotest.(check bool) "true" true (Jsonlite.parse "true" = Jsonlite.Bool true);
  Alcotest.(check int) "int" (-42) (Jsonlite.get_int (Jsonlite.parse "-42"));
  Alcotest.(check string) "string" "a\nb" (Jsonlite.get_string (Jsonlite.parse "\"a\\nb\""));
  match Jsonlite.parse "3.5" with
  | Jsonlite.Float f -> Alcotest.(check (float 1e-9)) "float" 3.5 f
  | _ -> Alcotest.fail "expected float"

let test_json_structures () =
  let j = Jsonlite.parse {| { "a": [1, 2, 3], "b": { "c": "x" }, "d": false } |} in
  Alcotest.(check int) "array elem" 2
    (Jsonlite.get_int (List.nth (Jsonlite.get_list (Jsonlite.member "a" j)) 1));
  Alcotest.(check string) "nested" "x"
    (Jsonlite.get_string (Jsonlite.member "c" (Jsonlite.member "b" j)));
  Alcotest.(check bool) "missing is Null" true (Jsonlite.member "zz" j = Jsonlite.Null);
  Alcotest.(check string) "default" "d" (Jsonlite.member_string ~default:"d" "zz" j)

let test_json_errors () =
  List.iter
    (fun s ->
      match Jsonlite.parse_result s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s)
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nulll x"; "{} trailing"; "tru" ]

let test_json_float_format () =
  (* Plain fixed point, never %g exponent notation, shortest form that
     round-trips, and floats keep a decimal point through a reparse. *)
  Alcotest.(check string) "large float plain decimal" "1927760.0"
    (Jsonlite.to_string (Jsonlite.Float 1.92776e+06));
  Alcotest.(check string) "short decimal" "14745.6"
    (Jsonlite.to_string (Jsonlite.Float 14745.6));
  Alcotest.(check string) "integral keeps point" "300.0"
    (Jsonlite.to_string (Jsonlite.Float 300.0));
  Alcotest.(check string) "negative" "-0.25"
    (Jsonlite.to_string (Jsonlite.Float (-0.25)));
  Alcotest.(check string) "non-finite is null" "null"
    (Jsonlite.to_string (Jsonlite.Float Float.nan));
  match Jsonlite.parse "1927760.0" with
  | Jsonlite.Float f -> Alcotest.(check (float 0.0)) "reparses as float" 1.92776e+06 f
  | _ -> Alcotest.fail "expected float back"

let rec json_printable = function
  (* Finite floats print as shortest round-tripping fixed point; only
     non-finite values (printed as null) are excluded. *)
  | Jsonlite.Float f -> Float.is_finite f
  | Jsonlite.List items -> List.for_all json_printable items
  | Jsonlite.Obj fields -> List.for_all (fun (_, v) -> json_printable v) fields
  | Jsonlite.Null | Jsonlite.Bool _ | Jsonlite.Int _ | Jsonlite.String _ -> true

let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Jsonlite.Null;
                map (fun b -> Jsonlite.Bool b) bool;
                map (fun i -> Jsonlite.Int i) (int_range (-1000) 1000);
                map (fun f -> Jsonlite.Float f) float;
                map (fun s -> Jsonlite.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
              ]
          else
            oneof
              [
                map (fun l -> Jsonlite.List l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun fields -> Jsonlite.Obj fields)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) (self (n / 2))));
              ])
        (min n 4))

let json_roundtrip_property =
  QCheck.Test.make ~name:"jsonlite: print/parse roundtrip" ~count:300
    (QCheck.make json_gen) (fun j ->
      QCheck.assume (json_printable j);
      match Jsonlite.parse_result (Jsonlite.to_string j) with
      | Ok j' -> j = j'
      | Error _ -> false)

(* --- Fndata --- *)

let sample_record =
  Fndata.Record
    [ ("name", Fndata.Str "Euro"); ("year", Fndata.Int 2025L);
      ("tags", Fndata.List [ Fndata.Str "a"; Fndata.Str "b" ]) ]

let test_fndata_roundtrip () =
  List.iter
    (fun v ->
      let decoded = Fndata.decode (Fndata.encode v) in
      if not (Fndata.equal v decoded) then
        Alcotest.fail (Format.asprintf "roundtrip failed for %a" Fndata.pp v))
    [
      Fndata.Unit;
      Fndata.Int (-7L);
      Fndata.Str "";
      Fndata.Str "hello";
      Fndata.Raw (Bytes.of_string "\000\255raw");
      Fndata.Pair (Fndata.Int 1L, Fndata.Str "x");
      Fndata.List [];
      Fndata.List [ Fndata.Int 1L; Fndata.Int 2L ];
      sample_record;
    ]

let test_fndata_fingerprint_shape_only () =
  let a = Fndata.Record [ ("name", Fndata.Str "A"); ("year", Fndata.Int 1L) ] in
  let b = Fndata.Record [ ("name", Fndata.Str "B"); ("year", Fndata.Int 2L) ] in
  Alcotest.(check int64) "same shape, same fingerprint" (Fndata.fingerprint a)
    (Fndata.fingerprint b);
  let c = Fndata.Record [ ("title", Fndata.Str "A"); ("year", Fndata.Int 1L) ] in
  Alcotest.(check bool) "field name changes fingerprint" true
    (Fndata.fingerprint a <> Fndata.fingerprint c);
  Alcotest.(check bool) "different constructors differ" true
    (Fndata.fingerprint (Fndata.Int 0L) <> Fndata.fingerprint (Fndata.Str ""))

let test_fndata_decode_errors () =
  List.iter
    (fun b ->
      match Fndata.decode b with
      | _ -> Alcotest.fail "malformed must not decode"
      | exception Invalid_argument _ -> ())
    [
      Bytes.of_string "\x09";  (* unknown tag *)
      Bytes.of_string "\x01\x01";  (* truncated int *)
      Bytes.of_string "\x02\xff\xff\xff\xff\xff\xff\xff\xff";  (* bad length *)
      Bytes.cat (Fndata.encode Fndata.Unit) (Bytes.of_string "junk");
    ]

let test_fndata_record_get () =
  Alcotest.(check bool) "get" true
    (Fndata.equal (Fndata.record_get sample_record "year") (Fndata.Int 2025L));
  (match Fndata.record_get sample_record "zz" with
  | _ -> Alcotest.fail "missing field"
  | exception Not_found -> ());
  match Fndata.record_get (Fndata.Int 1L) "x" with
  | _ -> Alcotest.fail "not a record"
  | exception Invalid_argument _ -> ()

let fndata_gen =
  let open QCheck.Gen in
  sized
    (fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return Fndata.Unit;
               map (fun i -> Fndata.Int (Int64.of_int i)) int;
               map (fun s -> Fndata.Str s) (string_size (int_range 0 12));
               map (fun s -> Fndata.Raw (Bytes.of_string s)) (string_size (int_range 0 12));
             ]
         else
           oneof
             [
               map2 (fun a b -> Fndata.Pair (a, b)) (self (n / 2)) (self (n / 2));
               map (fun l -> Fndata.List l) (list_size (int_range 0 4) (self (n / 2)));
               map
                 (fun fields -> Fndata.Record fields)
                 (list_size (int_range 0 4)
                    (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) (self (n / 2))));
             ]))

let fndata_roundtrip_property =
  QCheck.Test.make ~name:"fndata: encode/decode roundtrip" ~count:300
    (QCheck.make fndata_gen) (fun v -> Fndata.equal v (Fndata.decode (Fndata.encode v)))

(* --- Workflow --- *)

let node id modules =
  { Workflow.node_id = id; language = Workflow.Rust; instances = 1; required_modules = modules }

let test_workflow_validation () =
  (match Workflow.create ~name:"w" ~nodes:[ node "a" []; node "a" [] ] ~edges:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate ids must fail");
  (match Workflow.create ~name:"w" ~nodes:[ node "a" [] ] ~edges:[ ("a", "zz") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling edge must fail");
  (match
     Workflow.create ~name:"w"
       ~nodes:[ node "a" []; node "b" [] ]
       ~edges:[ ("a", "b"); ("b", "a") ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle must fail");
  (match
     Workflow.create ~name:"w"
       ~nodes:[ { (node "a" []) with Workflow.instances = 0 } ]
       ~edges:[]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero instances must fail");
  match Workflow.create ~name:"w" ~nodes:[ node "a" [ "mm"; "nosuch" ] ] ~edges:[] with
  | Error e ->
      Alcotest.(check string) "names the module"
        {|node a requires unknown as-libos module "nosuch"|} e
  | Ok _ -> Alcotest.fail "unknown as-libos module must fail"

let test_workflow_fits_a_wfd () =
  (* Each instance holds a function slot for the WFD's lifetime. *)
  let sized id instances = { (node id []) with Workflow.instances } in
  let create nodes edges = Workflow.create ~name:"w" ~nodes ~edges in
  (match create [ sized "a" 64 ] [] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("64 instances fit: " ^ e));
  let too_many = "workflow has 65 function instances but a WFD has 64 function slots" in
  (match create [ sized "a" 65 ] [] with
  | Error e -> Alcotest.(check string) "65 in one stage" too_many e
  | Ok _ -> Alcotest.fail "65 instances must fail");
  (match create [ sized "a" 40; sized "b" 25 ] [ ("a", "b") ] with
  | Error e -> Alcotest.(check string) "40 + 25 over two stages" too_many e
  | Ok _ -> Alcotest.fail "65 instances over two stages must fail");
  match create [] [] with
  | Error e -> Alcotest.(check string) "empty" "workflow has no functions" e
  | Ok _ -> Alcotest.fail "a workflow without functions must fail"

let test_workflow_stages_diamond () =
  let wf =
    Workflow.create_exn ~name:"diamond"
      ~nodes:[ node "a" []; node "b" []; node "c" []; node "d" [] ]
      ~edges:[ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ]
  in
  let stages = List.map (List.map (fun n -> n.Workflow.node_id)) (Workflow.stages wf) in
  Alcotest.(check (list (list string))) "layers" [ [ "a" ]; [ "b"; "c" ]; [ "d" ] ] stages;
  Alcotest.(check (list string)) "preds of d" [ "b"; "c" ] (Workflow.predecessors wf "d");
  Alcotest.(check (list string)) "succs of a" [ "b"; "c" ] (Workflow.successors wf "a")

let test_workflow_stages_uneven_depth () =
  (* a -> c and a -> b -> c style: longest-path layering puts c after b. *)
  let wf =
    Workflow.create_exn ~name:"w"
      ~nodes:[ node "a" []; node "b" []; node "c" [] ]
      ~edges:[ ("a", "c"); ("a", "b"); ("b", "c") ]
  in
  let stages = List.map (List.map (fun n -> n.Workflow.node_id)) (Workflow.stages wf) in
  Alcotest.(check (list (list string))) "layers" [ [ "a" ]; [ "b" ]; [ "c" ] ] stages

let test_workflow_chain_builder () =
  let wf = Workflow.chain ~name:"c" 5 in
  Alcotest.(check int) "five nodes" 5 (List.length wf.Workflow.nodes);
  Alcotest.(check int) "four edges" 4 (List.length wf.Workflow.edges);
  Alcotest.(check int) "five stages" 5 (List.length (Workflow.stages wf))

let test_workflow_required_modules () =
  let wf =
    Workflow.create_exn ~name:"w"
      ~nodes:[ node "a" [ "mm"; "time" ]; node "b" [ "time"; "fatfs" ] ]
      ~edges:[ ("a", "b") ]
  in
  Alcotest.(check (list string)) "union dedup" [ "mm"; "time"; "fatfs" ]
    (Workflow.required_modules wf)

let test_workflow_json_roundtrip () =
  let wf =
    Workflow.create_exn ~name:"img"
      ~nodes:
        [
          { Workflow.node_id = "extract"; language = Workflow.C; instances = 2;
            required_modules = [ "mm"; "fatfs" ] };
          node "store" [ "socket" ];
        ]
      ~edges:[ ("extract", "store") ]
  in
  match Workflow.of_string (Jsonlite.to_string (Workflow.to_json wf)) with
  | Error e -> Alcotest.fail e
  | Ok wf' ->
      Alcotest.(check string) "name" wf.Workflow.wf_name wf'.Workflow.wf_name;
      Alcotest.(check int) "nodes" 2 (List.length wf'.Workflow.nodes);
      let extract = Workflow.node wf' "extract" in
      Alcotest.(check int) "instances" 2 extract.Workflow.instances;
      Alcotest.(check bool) "language" true (extract.Workflow.language = Workflow.C)

let test_workflow_json_errors () =
  (match Workflow.of_string "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad json must fail");
  (match
     Workflow.of_string
       {| { "workflow": "w", "functions": [ { "name": "a", "language": "cobol" } ] } |}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown language must fail");
  match
    Workflow.of_string
      {| { "workflow": "w", "functions": [ { "name": "a", "modules": ["nosuch"] } ] } |}
  with
  | Error e ->
      Alcotest.(check string) "names the module"
        {|node a requires unknown as-libos module "nosuch"|} e
  | Ok _ -> Alcotest.fail "unknown as-libos module must fail"

(* Random DAGs: stages must place every node after all its
   predecessors, exactly once. *)
let dag_gen =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    (* Edges only from lower to higher indices: acyclic by construction. *)
    let all_pairs =
      List.concat (List.init n (fun a -> List.init n (fun b -> (a, b))))
      |> List.filter (fun (a, b) -> a < b)
    in
    let pick_edge (a, b) =
      map (fun keep -> if keep then Some (a, b) else None) bool
    in
    flatten_l (List.map pick_edge all_pairs) >>= fun edges ->
    return (n, List.filter_map Fun.id edges))

let workflow_stages_property =
  QCheck.Test.make ~name:"workflow: stages respect dependencies" ~count:200
    (QCheck.make dag_gen)
    (fun (n, edges) ->
      let name i = Printf.sprintf "n%d" i in
      let nodes = List.init n (fun i -> node (name i) []) in
      let edges = List.map (fun (a, b) -> (name a, name b)) edges in
      match Workflow.create ~name:"p" ~nodes ~edges with
      | Error _ -> false
      | Ok wf ->
          let stages = Workflow.stages wf in
          let layer_of = Hashtbl.create 16 in
          List.iteri
            (fun layer stage ->
              List.iter (fun (nd : Workflow.node) -> Hashtbl.replace layer_of nd.Workflow.node_id layer) stage)
            stages;
          let count = List.fold_left (fun acc s -> acc + List.length s) 0 stages in
          count = n
          && List.for_all
               (fun (a, b) -> Hashtbl.find layer_of a < Hashtbl.find layer_of b)
               edges)

let test_workflow_dot () =
  let wf =
    Workflow.create_exn ~name:"viz"
      ~nodes:[ node "a" []; { (node "b" []) with Workflow.instances = 3 } ]
      ~edges:[ ("a", "b") ]
  in
  let dot = Workflow.to_dot wf in
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph header" true (contains "digraph \"viz\"");
  Alcotest.(check bool) "edge rendered" true (contains "\"a\" -> \"b\";");
  Alcotest.(check bool) "instances in label" true (contains "x3")

(* --- Cost model --- *)

let test_cost_load_all_calibration () =
  (* The Fig. 10 AS-load-all delta is 88.1ms; the static sum of module
     loading must land close (module constructors add the rest). *)
  let ms = Sim.Units.to_ms Libos.load_all_cost in
  Alcotest.(check bool) "static load-all near 86-89ms" true (ms > 84.0 && ms < 90.0)

let test_cost_transfer_calibration () =
  (* 16MB written + read at the Rust buffer bandwidth + smart pointer
     should be ~951us (Fig. 11). *)
  let bytes = 16 * 1024 * 1024 in
  let t =
    Sim.Units.add Cost.smart_pointer_overhead
      (Sim.Units.time_for_bytes ~bytes_per_sec:Cost.buffer_copy_bw_rust (2 * bytes))
  in
  let us = Sim.Units.to_us t in
  Alcotest.(check bool) "rust 16MB ~951us" true (us > 930.0 && us < 975.0);
  let tc = Sim.Units.time_for_bytes ~bytes_per_sec:Cost.buffer_copy_bw_c (2 * bytes) in
  Alcotest.(check bool) "c 16MB ~697us" true
    (Sim.Units.to_us tc > 680.0 && Sim.Units.to_us tc < 715.0)

let test_cost_unknown_module () =
  match Cost.module_load "nope" with
  | _ -> Alcotest.fail "unknown module must raise"
  | exception Invalid_argument _ -> ()

(* --- Ext map --- *)

let test_ext_map () =
  let t = Ext.create () in
  let ka : int Ext.key = Ext.new_key "a" in
  let kb : string Ext.key = Ext.new_key "b" in
  Alcotest.(check (option int)) "empty" None (Ext.get t ka);
  Ext.set t ka 7;
  Ext.set t kb "x";
  Alcotest.(check int) "typed get" 7 (Ext.get_exn t ka);
  Alcotest.(check string) "other key" "x" (Ext.get_exn t kb);
  Ext.set t ka 9;
  Alcotest.(check int) "overwrite" 9 (Ext.get_exn t ka);
  Ext.remove t ka;
  Alcotest.(check bool) "removed" false (Ext.mem t ka);
  match Ext.get_exn t ka with
  | _ -> Alcotest.fail "get_exn on empty must raise"
  | exception Invalid_argument _ -> ()

let test_errno_strings () =
  Alcotest.(check string) "enoent" "ENOENT" (Errno.to_string Errno.Enoent);
  match Errno.fail Errno.Einval "bad %d" 7 with
  | _ -> Alcotest.fail "must raise"
  | exception Errno.Error (Errno.Einval, msg) -> Alcotest.(check string) "msg" "bad 7" msg

let suite =
  [
    Alcotest.test_case "json scalars" `Quick test_json_scalars;
    Alcotest.test_case "json structures" `Quick test_json_structures;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json float format" `Quick test_json_float_format;
    QCheck_alcotest.to_alcotest json_roundtrip_property;
    Alcotest.test_case "fndata roundtrip" `Quick test_fndata_roundtrip;
    Alcotest.test_case "fndata fingerprint shape" `Quick test_fndata_fingerprint_shape_only;
    Alcotest.test_case "fndata decode errors" `Quick test_fndata_decode_errors;
    Alcotest.test_case "fndata record_get" `Quick test_fndata_record_get;
    QCheck_alcotest.to_alcotest fndata_roundtrip_property;
    Alcotest.test_case "workflow validation" `Quick test_workflow_validation;
    Alcotest.test_case "workflow fits a WFD" `Quick test_workflow_fits_a_wfd;
    Alcotest.test_case "workflow diamond stages" `Quick test_workflow_stages_diamond;
    Alcotest.test_case "workflow uneven depth" `Quick test_workflow_stages_uneven_depth;
    Alcotest.test_case "workflow chain builder" `Quick test_workflow_chain_builder;
    Alcotest.test_case "workflow required modules" `Quick test_workflow_required_modules;
    Alcotest.test_case "workflow json roundtrip" `Quick test_workflow_json_roundtrip;
    Alcotest.test_case "workflow json errors" `Quick test_workflow_json_errors;
    QCheck_alcotest.to_alcotest workflow_stages_property;
    Alcotest.test_case "workflow dot output" `Quick test_workflow_dot;
    Alcotest.test_case "cost: load-all calibration" `Quick test_cost_load_all_calibration;
    Alcotest.test_case "cost: transfer calibration" `Quick test_cost_transfer_calibration;
    Alcotest.test_case "cost: unknown module" `Quick test_cost_unknown_module;
    Alcotest.test_case "ext map" `Quick test_ext_map;
    Alcotest.test_case "errno" `Quick test_errno_strings;
  ]
