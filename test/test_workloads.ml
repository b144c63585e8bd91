(* Tests for the benchmark workloads: data generators, kernels,
   validation plumbing. *)

open Workloads

let test_datagen_determinism () =
  Alcotest.(check bytes) "payload deterministic" (Datagen.payload ~seed:5 1000)
    (Datagen.payload ~seed:5 1000);
  Alcotest.(check bool) "seed matters" true
    (Datagen.payload ~seed:5 1000 <> Datagen.payload ~seed:6 1000);
  Alcotest.(check bytes) "text deterministic" (Datagen.words_text ~seed:5 1000)
    (Datagen.words_text ~seed:5 1000)

let test_datagen_text_shape () =
  let text = Bytes.to_string (Datagen.words_text ~seed:1 5000) in
  Alcotest.(check int) "exact size" 5000 (String.length text);
  Alcotest.(check bool) "contains separators" true (String.contains text ' ');
  (* Tokens look like the vocabulary. *)
  Alcotest.(check bool) "vocabulary tokens" true
    (String.length text > 0 && text.[0] = 'w')

let test_datagen_records () =
  let data = Datagen.int32_records ~seed:2 ~count:100 in
  Alcotest.(check int) "record count" 100 (Datagen.record_count data);
  Datagen.set_record data 3 42l;
  Alcotest.(check int32) "get/set" 42l (Datagen.get_record data 3)

(* --- wordcount internals --- *)

let test_count_words () =
  let counts = Wordcount.count_words (Bytes.of_string "a b a\nc  a b") in
  Alcotest.(check int) "a" 3 !(Hashtbl.find counts "a");
  Alcotest.(check int) "b" 2 !(Hashtbl.find counts "b");
  Alcotest.(check int) "c" 1 !(Hashtbl.find counts "c");
  Alcotest.(check int) "distinct" 3 (Hashtbl.length counts)

(* count_words against the reference counter on generated text: the
   same words, counts and [Hashtbl.fold] order, over separator runs,
   leading and trailing separators, tabs and carriage returns, bytes
   from 0x80 up, and vocabularies past 1 024 distinct words, so the
   index grows. *)
let count_words_property =
  let text =
    QCheck.Gen.(
      let sep = oneofl [ ' '; '\n'; '\t'; '\r' ] in
      let word_byte = oneof [ char_range 'a' 'e'; char_range '\x80' '\xff'; char_range '!' '~' ] in
      let word = string_size ~gen:word_byte (int_range 1 12) in
      let vocab = list_size (oneof [ int_range 1 20; int_range 1100 1600 ]) word in
      vocab >>= fun vocab ->
      let vocab = Array.of_list vocab in
      let token =
        map2
          (fun i seps -> vocab.(i) ^ String.concat "" (List.map (String.make 1) seps))
          (int_bound (Array.length vocab - 1))
          (list_size (int_range 1 3) sep)
      in
      map3
        (fun lead tokens trail ->
          Bytes.of_string (String.make lead ' ' ^ String.concat "" tokens ^ String.make trail '\t'))
        (int_range 0 2)
        (list_size (int_range 0 4000) token)
        (int_range 0 2))
  in
  QCheck.Test.make ~name:"count_words == reference counter" ~count:60
    (QCheck.make ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b)) text)
    (fun data ->
      let fold t = Hashtbl.fold (fun w c acc -> (w, !c) :: acc) t [] in
      fold (Wordcount.count_words data) = fold (Oracle.Wordcount_ref.count_words data))

let test_counts_codec () =
  let pairs = [ ("alpha", 3); ("beta", 14) ] in
  Alcotest.(check (list (pair string int))) "roundtrip" pairs
    (Wordcount.decode_counts (Wordcount.encode_counts pairs));
  Alcotest.(check (list (pair string int))) "empty" []
    (Wordcount.decode_counts Bytes.empty)

let test_expected_counts_total () =
  (* Total word count equals the number of separators + 1-ish; check
     conservation: sum of counts equals the token count. *)
  let size = 20_000 in
  let text = Datagen.words_text ~seed:9 size in
  let expected = Wordcount.expected_counts ~seed:9 ~size in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 expected in
  let by_direct = Hashtbl.fold (fun _ c acc -> acc + !c) (Wordcount.count_words text) 0 in
  Alcotest.(check int) "conserved" by_direct total

(* --- parallel sorting internals --- *)

let test_sort_records () =
  let data = Datagen.int32_records ~seed:3 ~count:10_000 in
  let sorted = Parallel_sorting.sort_records data in
  Alcotest.(check bool) "sorted" true (Parallel_sorting.is_sorted sorted);
  Alcotest.(check int) "same length" (Bytes.length data) (Bytes.length sorted);
  (* Same multiset: compare against a reference sort. *)
  let to_list b = List.init (Datagen.record_count b) (Datagen.get_record b) in
  let ref_sorted =
    List.sort
      (fun a b ->
        compare (Int32.to_int a land 0xFFFFFFFF) (Int32.to_int b land 0xFFFFFFFF))
      (to_list data)
  in
  Alcotest.(check bool) "permutation" true (to_list sorted = ref_sorted)

let test_sort_edge_cases () =
  Alcotest.(check bytes) "empty" Bytes.empty (Parallel_sorting.sort_records Bytes.empty);
  let one = Datagen.int32_records ~seed:1 ~count:1 in
  Alcotest.(check bytes) "singleton" one (Parallel_sorting.sort_records one);
  Alcotest.(check bool) "unsigned order" true
    (Parallel_sorting.is_sorted
       (let b = Bytes.create 8 in
        Bytes.set_int32_le b 0 1l;
        Bytes.set_int32_le b 4 (-1l) (* 0xFFFFFFFF sorts last unsigned *);
        b))

let test_bucket_partitioning () =
  (* Buckets are ordered: every value in bucket i is below every value
     in bucket i+1. *)
  let buckets = 4 in
  for _ = 1 to 100 do
    ()
  done;
  let boundary_ok a b =
    Parallel_sorting.bucket_of a ~buckets <= Parallel_sorting.bucket_of b ~buckets
  in
  Alcotest.(check bool) "ordering respected" true
    (boundary_ok 0l 100l && boundary_ok 100l 1000000l);
  Alcotest.(check int) "min bucket" 0 (Parallel_sorting.bucket_of 0l ~buckets);
  Alcotest.(check bool) "max bucket" true
    (Parallel_sorting.bucket_of (-1l) ~buckets = buckets - 1)

(* sort_records gives a reference sort's bytes, on values biased to the
   digit and sign edges (0, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF) and
   to duplicates. *)
let sort_property =
  let value =
    QCheck.Gen.(
      frequency
        [
          (3, map Int32.of_int int);
          (2, oneofl [ 0l; 0x7FFF_FFFFl; Int32.min_int; -1l; 1l; 0x7FFl; 0x800l; 0x3F_FFFFl ]);
          (2, map Int32.of_int (int_range 0 15));
        ])
  in
  QCheck.Test.make ~name:"sort_records sorts any input" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 5000) value))
    (fun xs ->
      let pack xs =
        let b = Bytes.create (4 * List.length xs) in
        List.iteri (fun i x -> Bytes.set_int32_le b (4 * i) x) xs;
        b
      in
      let reference = List.stable_sort Int32.unsigned_compare xs in
      let sorted = Parallel_sorting.sort_records (pack xs) in
      Parallel_sorting.is_sorted sorted && Bytes.equal sorted (pack reference))

(* --- function chain --- *)

let test_checksum_sensitivity () =
  let a = Bytes.of_string "aaaaaaaaaaaaaaaa" in
  let b = Bytes.of_string "aaaaaaaaaaaaaaab" in
  Alcotest.(check bool) "differs on content" true
    (Function_chain.checksum a <> Function_chain.checksum b);
  Alcotest.(check int64) "deterministic" (Function_chain.checksum a)
    (Function_chain.checksum a);
  (* Tail bytes beyond the 8-byte stride count too. *)
  let c = Bytes.of_string "aaaaaaaaaX" in
  let d = Bytes.of_string "aaaaaaaaaY" in
  Alcotest.(check bool) "tail matters" true
    (Function_chain.checksum c <> Function_chain.checksum d)

let test_chain_app_shape () =
  let app = Function_chain.app ~seed:1 ~payload:1000 ~length:5 in
  Alcotest.(check int) "stages" 5 (List.length app.Fctx.stages);
  Alcotest.(check (list (pair string string))) "no inputs" []
    (List.map (fun (a, b) -> (a, Bytes.to_string b)) app.Fctx.inputs);
  match Function_chain.app ~seed:1 ~payload:10 ~length:1 with
  | _ -> Alcotest.fail "length 1 invalid"
  | exception Invalid_argument _ -> ()

(* --- apps run end to end on a direct in-memory harness --- *)

let run_direct (app : Fctx.app) =
  (* Minimal platform: everything free and in-memory; validates that
     kernels compose correctly independent of any platform model. *)
  let store = Hashtbl.create 16 in
  let files = Hashtbl.create 16 in
  List.iter (fun (p, d) -> Hashtbl.replace files p d) app.Fctx.inputs;
  let make_fctx instance total =
    {
      Fctx.instance;
      total;
      read_input = (fun p -> Hashtbl.find files p);
      write_output = (fun p d -> Hashtbl.replace files p d);
      send = (fun ~slot d -> Hashtbl.replace store slot (Bytes.copy d));
      recv =
        (fun ~slot ->
          match Hashtbl.find_opt store slot with
          | Some d ->
              Hashtbl.remove store slot;
              d
          | None -> raise Not_found);
      println = (fun _ -> ());
      compute = (fun _ -> ());
      phase = (fun _ f -> f ());
    }
  in
  List.iter
    (fun (_, instances, kernel) ->
      for i = 0 to instances - 1 do
        kernel (make_fctx i instances)
      done)
    app.Fctx.stages;
  app.Fctx.validate ~read_output:(fun p -> Hashtbl.find_opt files p)

let check_direct name app =
  match run_direct app with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_wordcount_app_direct () =
  check_direct "wordcount" (Wordcount.app ~seed:7 ~size:50_000 ~instances:3)

let test_wordcount_single_instance () =
  check_direct "wordcount x1" (Wordcount.app ~seed:8 ~size:10_000 ~instances:1)

let test_sorting_app_direct () =
  check_direct "sorting" (Parallel_sorting.app ~seed:7 ~size:100_000 ~instances:4)

let test_chain_app_direct () =
  check_direct "chain" (Function_chain.app ~seed:7 ~payload:10_000 ~length:6)

let test_pipe_app_direct () = check_direct "pipe" (Pipe_app.app ~seed:7 ~size:50_000)

let test_image_pipeline_direct () =
  check_direct "image" (Image_meta.image_pipeline ~seed:7)

(* One FunctionChain app validates on every run, and its tail still
   checks the bytes: a run whose hop flips one byte fails. *)
let test_chain_runs_twice_and_catches_corruption () =
  let app = Function_chain.app ~seed:11 ~payload:5_000 ~length:4 in
  check_direct "chain, first run" app;
  check_direct "chain, second run" app;
  let flip (app : Fctx.app) =
    let hop (name, n, kernel) =
      if name <> "fn1" then (name, n, kernel)
      else
        ( name,
          n,
          fun (ctx : Fctx.t) ->
            kernel
              {
                ctx with
                Fctx.send =
                  (fun ~slot data ->
                    let data = Bytes.copy data in
                    Bytes.set data 1234 (Char.chr (Char.code (Bytes.get data 1234) lxor 1));
                    ctx.Fctx.send ~slot data);
              } )
    in
    { app with Fctx.stages = List.map hop app.Fctx.stages }
  in
  match run_direct (flip app) with
  | _ -> Alcotest.fail "a flipped byte must fail the chain"
  | exception Failure msg ->
      Alcotest.(check string) "tail verdict" "FunctionChain: payload corrupted along the chain" msg

let test_wordcount_validation_catches_corruption () =
  let app = Wordcount.app ~seed:7 ~size:10_000 ~instances:2 in
  (* Corrupt the output after the run by dropping a word. *)
  let result =
    match run_direct app with
    | Ok () ->
        app.Fctx.validate ~read_output:(fun _ ->
            Some (Wordcount.encode_counts [ ("only", 1) ]))
    | Error e -> Error e
  in
  match result with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "validation must catch wrong output"

let test_compile_app_direct () =
  check_direct "online-compiling" (Compile_app.app ~n:1000 ~seed:1 ())

let test_compile_app_on_alloystack () =
  let m = (Baselines.As_platform.alloystack).Baselines.Platform.run (Compile_app.app ~n:500 ~seed:1 ()) in
  match m.Baselines.Platform.validated with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_table1_inventory () =
  Alcotest.(check int) "nine functions" 9 (List.length Image_meta.table);
  let e = Image_meta.find "store-image-metadata" in
  Alcotest.(check (list string)) "paper components" [ "time"; "mm"; "net" ]
    e.Image_meta.components;
  let oc = Image_meta.find "online-compiling" in
  Alcotest.(check int) "most demanding" 9 (List.length oc.Image_meta.components);
  match Image_meta.find "nope" with
  | _ -> Alcotest.fail "unknown function"
  | exception Not_found -> ()

let suite =
  [
    Alcotest.test_case "datagen determinism" `Quick test_datagen_determinism;
    Alcotest.test_case "datagen text shape" `Quick test_datagen_text_shape;
    Alcotest.test_case "datagen records" `Quick test_datagen_records;
    Alcotest.test_case "count_words" `Quick test_count_words;
    Alcotest.test_case "counts codec" `Quick test_counts_codec;
    Alcotest.test_case "expected counts conserved" `Quick test_expected_counts_total;
    Alcotest.test_case "sort_records" `Quick test_sort_records;
    Alcotest.test_case "sort edge cases" `Quick test_sort_edge_cases;
    Alcotest.test_case "bucket partitioning" `Quick test_bucket_partitioning;
    QCheck_alcotest.to_alcotest sort_property;
    Alcotest.test_case "checksum sensitivity" `Quick test_checksum_sensitivity;
    Alcotest.test_case "chain app shape" `Quick test_chain_app_shape;
    Alcotest.test_case "wordcount direct" `Quick test_wordcount_app_direct;
    Alcotest.test_case "wordcount single instance" `Quick test_wordcount_single_instance;
    Alcotest.test_case "sorting direct" `Quick test_sorting_app_direct;
    Alcotest.test_case "chain direct" `Quick test_chain_app_direct;
    Alcotest.test_case "pipe direct" `Quick test_pipe_app_direct;
    Alcotest.test_case "image pipeline direct" `Quick test_image_pipeline_direct;
    Alcotest.test_case "validation catches corruption" `Quick test_wordcount_validation_catches_corruption;
    Alcotest.test_case "online-compiling direct" `Quick test_compile_app_direct;
    Alcotest.test_case "online-compiling on AS" `Quick test_compile_app_on_alloystack;
    Alcotest.test_case "Table 1 inventory" `Quick test_table1_inventory;
    QCheck_alcotest.to_alcotest count_words_property;
    Alcotest.test_case "chain runs twice, catches a flipped byte" `Quick
      test_chain_runs_twice_and_catches_corruption;
  ]
