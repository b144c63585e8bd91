(* Tests for the WASM-style VM: validator, interpreter semantics, AOT
   equivalence, WASI layer, runtime profiles. *)

open Wasm

let simple_module ?(exports = [ ("f", 0) ]) ?(memory_pages = 1) funcs =
  Wmodule.create ~memory_pages ~exports ~name:"t" funcs

let call_interp ?hosts m name args =
  Interp.call (Interp.instantiate ?hosts m) name (Array.of_list args)

let test_arith () =
  let open Instr in
  let body = [ Const 7L; Const 5L; Binop Sub; Const 3L; Binop Mul ] in
  let m = simple_module [ Builder.func ~name:"f" body ] in
  Alcotest.(check int64) "(7-5)*3" 6L (call_interp m "f" [])

let test_division_semantics () =
  let open Instr in
  let m = simple_module [ Builder.func ~name:"f" ~params:2 [ Local_get 0; Local_get 1; Binop Div_s ] ] in
  Alcotest.(check int64) "div" (-3L) (call_interp m "f" [ -7L; 2L ]);
  match call_interp m "f" [ 1L; 0L ] with
  | _ -> Alcotest.fail "division by zero must trap"
  | exception Interp.Trap _ -> ()

let test_locals_and_globals () =
  let open Instr in
  let m =
    Wmodule.create ~name:"t" ~globals:[ 10L ] ~exports:[ ("f", 0) ]
      [
        Builder.func ~name:"f" ~params:1 ~locals:1
          [
            Global_get 0;
            Local_get 0;
            Binop Add;
            Local_tee 1;
            Global_set 0;
            Local_get 1;
          ];
      ]
  in
  let inst = Interp.instantiate m in
  Alcotest.(check int64) "first call" 15L (Interp.call inst "f" [| 5L |]);
  Alcotest.(check int64) "global persisted" 15L (Interp.read_global inst 0);
  Alcotest.(check int64) "second call accumulates" 20L (Interp.call inst "f" [| 5L |])

let test_control_flow_loop () =
  Alcotest.(check int64) "sum 1..10" 55L (call_interp Builder.sum_to_n "sum" [ 10L ]);
  Alcotest.(check int64) "sum 0" 0L (call_interp Builder.sum_to_n "sum" [ 0L ])

let test_recursion () =
  Alcotest.(check int64) "fib 10" 55L (call_interp Builder.fib "fib" [ 10L ]);
  Alcotest.(check int64) "fib 1" 1L (call_interp Builder.fib "fib" [ 1L ])

let test_branching_depths () =
  let open Instr in
  (* block (block (br 1)); leaves both blocks. *)
  let body = [ Const 1L; Block [ Block [ Br 1 ]; Const 99L; Drop ] ] in
  let m = simple_module [ Builder.func ~name:"f" body ] in
  Alcotest.(check int64) "br skips inner rest" 1L (call_interp m "f" [])

let test_select_eqz () =
  let open Instr in
  let m =
    simple_module
      [ Builder.func ~name:"f" ~params:1 [ Const 10L; Const 20L; Local_get 0; Select ] ]
  in
  Alcotest.(check int64) "select true" 10L (call_interp m "f" [ 1L ]);
  Alcotest.(check int64) "select false" 20L (call_interp m "f" [ 0L ])

let test_memory_ops () =
  let m = Builder.memory_fill in
  let inst = Interp.instantiate m in
  ignore (Interp.call inst "fill" [| 100L; 7L |]);
  Alcotest.(check int64) "checksum" 700L (Interp.call inst "checksum" [| 100L |]);
  let mem = Interp.read_memory inst 0 100 in
  Alcotest.(check char) "memory written" '\007' (Bytes.get mem 99)

let test_memory_bounds_trap () =
  let open Instr in
  let m = simple_module [ Builder.func ~name:"f" [ Const 70_000L; Load8 0 ] ] in
  match call_interp m "f" [] with
  | _ -> Alcotest.fail "oob load must trap"
  | exception Interp.Trap _ -> ()

let test_memory_grow () =
  let open Instr in
  let m =
    simple_module
      [ Builder.func ~name:"f" [ Memory_size; Drop; Const 2L; Memory_grow ] ]
  in
  let inst = Interp.instantiate m in
  Alcotest.(check int64) "grow returns old pages" 1L (Interp.call inst "f" [||]);
  Alcotest.(check int) "memory grew" (3 * Wmodule.page_size) (Interp.memory_size inst)

let test_fuel_exhaustion () =
  let open Instr in
  let m = simple_module [ Builder.func ~name:"f" [ Loop [ Br 0 ] ] ] in
  match Interp.call ~fuel:10_000 (Interp.instantiate m) "f" [||] with
  | _ -> Alcotest.fail "infinite loop must exhaust fuel"
  | exception Interp.Trap msg ->
      Alcotest.(check string) "fuel message" "out of fuel" msg

let test_unreachable () =
  let m = simple_module [ Builder.func ~name:"f" [ Instr.Unreachable ] ] in
  match call_interp m "f" [] with
  | _ -> Alcotest.fail "unreachable must trap"
  | exception Interp.Trap _ -> ()

let test_validate_errors () =
  let open Instr in
  let bad_local = simple_module [ Builder.func ~name:"f" [ Local_get 3 ] ] in
  (match Validate.validate bad_local with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad local index must fail validation");
  let bad_br = simple_module [ Builder.func ~name:"f" [ Br 0 ] ] in
  (match Validate.validate bad_br with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "branch beyond nesting must fail");
  let bad_call = simple_module [ Builder.func ~name:"f" [ Call 5 ] ] in
  (match Validate.validate bad_call with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown callee must fail");
  let bad_export = Wmodule.create ~name:"t" ~exports:[ ("g", 9) ] [] in
  (match Validate.validate bad_export with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad export must fail");
  let bad_data = Wmodule.create ~name:"t" ~memory_pages:1 ~data:[ (65533, "mydata") ] [] in
  match Validate.validate bad_data with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized data initialiser must fail"

let test_host_imports () =
  let open Instr in
  let m =
    Wmodule.create ~name:"t" ~imports:[ "add3" ] ~exports:[ ("f", 1) ]
      [ Builder.func ~name:"f" [ Const 1L; Const 2L; Const 3L; Call 0 ] ]
  in
  let hosts = [ ("add3", fun _ args -> Int64.add args.(0) (Int64.add args.(1) args.(2))) ] in
  Alcotest.(check int64) "host call" 6L (call_interp ~hosts m "f" []);
  match Interp.instantiate m with
  | _ -> Alcotest.fail "missing import must fail instantiation"
  | exception Invalid_argument _ -> ()

let test_data_initialisers () =
  let open Instr in
  let m =
    Wmodule.create ~name:"t" ~memory_pages:1 ~data:[ (10, "abc") ] ~exports:[ ("f", 0) ]
      [ Builder.func ~name:"f" [ Const 12L; Load8 0 ] ]
  in
  Alcotest.(check int64) "data loaded" (Int64.of_int (Char.code 'c')) (call_interp m "f" [])

(* --- AOT --- *)

let test_aot_matches_interp_kernels () =
  List.iter
    (fun (m, export, args, label) ->
      let i = call_interp m export args in
      let a = Aot.call (Aot.instantiate (Aot.compile m)) export (Array.of_list args) in
      Alcotest.(check int64) label i a)
    [
      (Builder.sum_to_n, "sum", [ 100L ], "sum");
      (Builder.fib, "fib", [ 12L ], "fib");
    ]

let test_aot_bubble_sort_really_sorts () =
  let compiled = Aot.compile Builder.bubble_sort in
  let inst = Aot.instantiate compiled in
  let n = 64 in
  let data = Sim.Rng.bytes (Sim.Rng.create 9) n in
  Aot.write_memory inst 0 data;
  ignore (Aot.call inst "sort" [| Int64.of_int n |]);
  let out = Aot.read_memory inst 0 n in
  let sorted = Bytes.copy data in
  let arr = Array.init n (fun i -> Bytes.get sorted i) in
  Array.sort compare arr;
  Array.iteri (fun i c -> Bytes.set sorted i c) arr;
  Alcotest.(check bytes) "bubble sort output" sorted out

let test_aot_image_is_clean () =
  let compiled = Aot.compile Builder.sum_to_n in
  match Isa.Scanner.verdict (Aot.to_image compiled) with
  | Isa.Scanner.Clean -> ()
  | v -> Alcotest.fail (Format.asprintf "AOT image not clean: %a" Isa.Scanner.pp_verdict v)

(* qcheck: random straight-line programs over every binary operator,
   [Select], locals and globals, some on short fuel, agree between
   interpreter and AOT: the result or trap, the globals left behind,
   and the retired-instruction count [Runtime.run] charges as virtual
   time. *)
let random_prog_gen =
  QCheck.Gen.(
    let binops =
      Instr.
        [
          Add; Sub; Mul; Div_s; Rem_s; And; Or; Xor; Shl; Shr_s; Eq; Ne; Lt_s; Gt_s; Le_s; Ge_s;
        ]
    in
    let instr =
      oneof
        [
          (* Small constants make ties, zero divisors and shifts past
             63 common. *)
          map (fun v -> Instr.Const (Int64.of_int v)) (int_range (-8) 70);
          map (fun op -> Instr.Binop op) (oneofl binops);
          oneofl
            Instr.
              [
                Const 0L; Eqz; Select; Local_get 0; Local_get 1; Local_tee 0; Local_set 1; Drop;
                Global_get 0; Global_get 1; Global_set 0; Global_set 1;
              ];
        ]
    in
    list_size (int_range 1 30) instr)

let aot_equivalence_property =
  QCheck.Test.make ~name:"aot: agrees with interpreter on random programs" ~count:300
    (QCheck.make QCheck.Gen.(pair (opt (int_range 20 80)) random_prog_gen))
    (fun (fuel, prog) ->
      (* Pad the stack so most programs never underflow, and make both
         locals and both globals available; "g" reads the globals the
         program left. *)
      let body = List.init 40 (fun i -> Instr.Const (Int64.of_int i)) @ prog in
      let m =
        Wmodule.create ~name:"t" ~globals:[ 5L; -9L ]
          ~exports:[ ("f", 0); ("g", 1) ]
          [
            Builder.func ~name:"f" ~params:2 body;
            Builder.func ~name:"g"
              Instr.[ Global_get 0; Const 31L; Binop Mul; Global_get 1; Binop Xor ];
          ]
      in
      let outcome call trap_msg =
        match call () with v -> Ok v | exception e -> Error (trap_msg e)
      in
      let interp =
        let i = Interp.instantiate m in
        let msg = function Interp.Trap s -> s | e -> raise e in
        let f = outcome (fun () -> Interp.call ?fuel i "f" [| 3L; 4L |]) msg in
        let g = outcome (fun () -> Interp.call i "g" [||]) msg in
        (f, g, Interp.executed i)
      in
      let aot =
        let a = Aot.instantiate (Aot.compile m) in
        let msg = function Aot.Trap s -> s | e -> raise e in
        let f = outcome (fun () -> Aot.call ?fuel a "f" [| 3L; 4L |]) msg in
        let g = outcome (fun () -> Aot.call a "g" [||]) msg in
        (f, g, Aot.executed a)
      in
      interp = aot)

(* Every binary operator on edge operands (ties, zero divisors, shift
   counts past 63, the extremes) gives the interpreter's result or
   trap. *)
let test_aot_binop_edges () =
  let ops =
    Instr.[ Add; Sub; Mul; Div_s; Rem_s; And; Or; Xor; Shl; Shr_s; Eq; Ne; Lt_s; Gt_s; Le_s; Ge_s ]
  in
  let m =
    Wmodule.create ~name:"ops"
      ~exports:(List.mapi (fun i _ -> (string_of_int i, i)) ops)
      (List.mapi
         (fun i op ->
           Builder.func ~name:(string_of_int i) ~params:2
             Instr.[ Local_get 0; Local_get 1; Binop op ])
         ops)
  in
  let edges = [ Int64.min_int; -64L; -1L; 0L; 1L; 2L; 63L; 64L; Int64.max_int ] in
  let interp = Interp.instantiate m and aot = Aot.instantiate (Aot.compile m) in
  List.iteri
    (fun i op ->
      let name = string_of_int i in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let want =
                match Interp.call interp name [| a; b |] with
                | v -> Ok v
                | exception Interp.Trap s -> Error s
              in
              let got =
                match Aot.call aot name [| a; b |] with v -> Ok v | exception Aot.Trap s -> Error s
              in
              if want <> got then
                Alcotest.failf "%a %Ld %Ld: interp and aot differ" Instr.pp_binop op a b)
            edges)
        edges)
    ops;
  Alcotest.(check int) "retired" (Interp.executed interp) (Aot.executed aot)

(* The AOT engine keeps operands unboxed: a loop of 1.6 M retired
   instructions allocates only the call's frame. *)
let test_aot_sum_allocation () =
  let inst = Aot.instantiate (Aot.compile Builder.sum_to_n) in
  let args = [| 100_000L |] in
  let before = Gc.minor_words () in
  let sum = Aot.call inst "sum" args in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int64) "sum" 5_000_050_000L sum;
  Alcotest.(check int) "retired" 1_600_012 (Aot.executed inst);
  if words >= 1000.0 then Alcotest.failf "sum_to_n 1e5 allocated %.0f minor words" words

(* --- WASI --- *)

let make_recorder () =
  let written = Buffer.create 16 in
  let sys =
    {
      Wasi.null_system with
      Wasi.sys_write =
        (fun ~fd data ->
          if fd = 1 then begin
            Buffer.add_bytes written data;
            Bytes.length data
          end
          else -1);
      Wasi.sys_clock_now = (fun () -> 123L);
    }
  in
  (sys, written)

let test_wasi_fd_write () =
  let open Instr in
  let m =
    Wmodule.create ~name:"t" ~imports:[ "fd_write" ] ~memory_pages:1
      ~data:[ (0, "hi wasi") ] ~exports:[ ("main", 1) ]
      [ Builder.func ~name:"main" [ Const 1L; Const 0L; Const 7L; Call 0 ] ]
  in
  let sys, written = make_recorder () in
  let inst = Interp.instantiate ~hosts:(Wasi.interp_imports sys) m in
  Alcotest.(check int64) "bytes written" 7L (Interp.call inst "main" [||]);
  Alcotest.(check string) "content" "hi wasi" (Buffer.contents written)

let test_wasi_clock () =
  let open Instr in
  let m =
    Wmodule.create ~name:"t" ~imports:[ "clock_time_get" ] ~exports:[ ("main", 1) ]
      [ Builder.func ~name:"main" [ Const 0L; Const 0L; Const 0L; Call 0 ] ]
  in
  let sys, _ = make_recorder () in
  let inst = Interp.instantiate ~hosts:(Wasi.interp_imports sys) m in
  Alcotest.(check int64) "clock" 123L (Interp.call inst "main" [||])

let test_wasi_buffer_interfaces () =
  let open Instr in
  (* buffer_register("s", memory[16..20]) then access_buffer("s") into
     memory[32..]. *)
  let packed = Int64.logor (Int64.shift_left 16L 32) 4L in
  let m =
    Wmodule.create ~name:"t"
      ~imports:[ "buffer_register"; "access_buffer" ]
      ~memory_pages:1
      ~data:[ (0, "s"); (16, "DATA") ]
      ~exports:[ ("reg", 2); ("acc", 3) ]
      [
        Builder.func ~name:"reg" [ Const 0L; Const 1L; Const packed; Call 0 ];
        Builder.func ~name:"acc" [ Const 0L; Const 1L; Const 32L; Call 1 ];
      ]
  in
  let store = Hashtbl.create 4 in
  let sys =
    {
      Wasi.null_system with
      Wasi.sys_buffer_register =
        (fun slot data ->
          Hashtbl.replace store slot data;
          true);
      Wasi.sys_access_buffer = (fun slot -> Hashtbl.find_opt store slot);
    }
  in
  let inst = Interp.instantiate ~hosts:(Wasi.interp_imports sys) m in
  Alcotest.(check int64) "register ok" 0L (Interp.call inst "reg" [||]);
  Alcotest.(check int64) "access returns length" 4L (Interp.call inst "acc" [||]);
  Alcotest.(check bytes) "data landed" (Bytes.of_string "DATA")
    (Interp.read_memory inst 32 4)

(* --- binary module encoding --- *)

let modules_equal (a : Wmodule.t) (b : Wmodule.t) =
  a.Wmodule.name = b.Wmodule.name
  && a.Wmodule.imports = b.Wmodule.imports
  && a.Wmodule.funcs = b.Wmodule.funcs
  && a.Wmodule.globals = b.Wmodule.globals
  && a.Wmodule.memory_pages = b.Wmodule.memory_pages
  && a.Wmodule.data = b.Wmodule.data
  && a.Wmodule.exports = b.Wmodule.exports

let test_encode_roundtrip_kernels () =
  List.iter
    (fun m ->
      let decoded = Encode.decode (Encode.encode m) in
      if not (modules_equal m decoded) then
        Alcotest.fail (m.Wmodule.name ^ ": binary roundtrip mismatch"))
    [ Builder.sum_to_n; Builder.fib; Builder.memory_fill; Builder.bubble_sort ]

let test_encode_decoded_still_runs () =
  let m = Encode.decode (Encode.encode Builder.sum_to_n) in
  Alcotest.(check int64) "decoded module executes" 5050L
    (Interp.call (Interp.instantiate m) "sum" [| 100L |])

let test_encode_rejects_garbage () =
  List.iter
    (fun b ->
      match Encode.decode_result b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage must not decode")
    [
      Bytes.of_string "";
      Bytes.of_string "WASM";
      Bytes.of_string " asm";  (* truncated after magic *)
      Bytes.cat (Encode.encode Builder.fib) (Bytes.of_string "x");  (* trailing *)
    ]

let test_encode_negative_consts () =
  let open Instr in
  let m =
    Wmodule.create ~name:"neg" ~exports:[ ("f", 0) ]
      [ Builder.func ~name:"f" [ Const (-123456789L); Const Int64.min_int; Binop Add ] ]
  in
  let decoded = Encode.decode (Encode.encode m) in
  Alcotest.(check bool) "sleb roundtrip of negatives" true (modules_equal m decoded)

let sleb_roundtrip_property =
  QCheck.Test.make ~name:"sleb128: roundtrip over random int64" ~count:500
    QCheck.(map Int64.of_int int)
    (fun v ->
      let buf = Buffer.create 10 in
      Encode.sleb_encode buf v;
      let m =
        Wmodule.create ~name:"x" ~exports:[ ("f", 0) ]
          [ Builder.func ~name:"f" [ Instr.Const v ] ]
      in
      match (Encode.decode (Encode.encode m)).Wmodule.funcs with
      | [ { Wmodule.body = [ Instr.Const v' ]; _ } ] -> Int64.equal v v'
      | _ -> false)

let encode_roundtrip_property =
  QCheck.Test.make ~name:"binary encoding: random modules roundtrip" ~count:150
    (QCheck.make
       QCheck.Gen.(
         let instr =
           oneof
             [
               map (fun v -> Instr.Const (Int64.of_int v)) int;
               oneofl Instr.[ Nop; Drop; Eqz; Return; Memory_size ];
               map (fun n -> Instr.Local_get (n land 0xFF)) int;
               map (fun n -> Instr.Br (n land 0xF)) int;
             ]
         in
         let body = list_size (int_range 0 10) instr in
         map2
           (fun body data ->
             Wmodule.create ~name:"rand" ~data:[ (0, data) ]
               ~exports:[ ("f", 0) ]
               [ { Wmodule.fname = "f"; params = 1; locals = 2; body } ])
           body
           (string_size (int_range 0 30))))
    (fun m -> modules_equal m (Encode.decode (Encode.encode m)))

(* --- text format --- *)

let test_wat_roundtrip_kernels () =
  List.iter
    (fun m ->
      let back = Wat.parse (Wat.print m) in
      if not (modules_equal m back) then
        Alcotest.fail (m.Wmodule.name ^ ": wat roundtrip mismatch"))
    [ Builder.sum_to_n; Builder.fib; Builder.memory_fill; Builder.bubble_sort ]

let test_wat_hand_written () =
  let src = {|
    ;; double the argument and add the global
    (module "demo"
      (memory 1)
      (global 100)
      (data 0 "hi
")
      (func "main" (param 1) (local 0)
        (local.get 0) (const 2) (mul) (global.get 0) (add))
      (export "main" 0))
  |} in
  let m = Wat.parse src in
  Alcotest.(check string) "name" "demo" m.Wmodule.name;
  Alcotest.(check int64) "runs" 142L
    (Interp.call (Interp.instantiate m) "main" [| 21L |]);
  Alcotest.(check bool) "data decoded with escape" true
    (m.Wmodule.data = [ (0, "hi
") ])

let test_wat_errors () =
  List.iter
    (fun src ->
      match Wat.parse_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("must not parse: " ^ src))
    [
      "";
      "(module";
      "(module \"x\" (bogus))";
      "(module \"x\" (func \"f\" (param 0) (local 0) (const nope)))";
      "(notmodule \"x\")";
      "(module \"x\") trailing";
    ]

let wat_roundtrip_property =
  QCheck.Test.make ~name:"wat: print/parse roundtrip on random modules" ~count:150
    (QCheck.make
       QCheck.Gen.(
         let instr =
           oneof
             [
               map (fun v -> Instr.Const (Int64.of_int v)) int;
               oneofl
                 Instr.[ Nop; Drop; Eqz; Return; Binop Add; Binop Xor; Memory_grow ];
               map (fun n -> Instr.Local_set (n land 0xF)) int;
               map (fun body -> Instr.Loop body) (return [ Instr.Br 0 ]);
             ]
         in
         map2
           (fun body data ->
             Wmodule.create ~name:"w" ~imports:[ "fd_write" ] ~globals:[ 5L; -9L ]
               ~data:[ (3, data) ] ~exports:[ ("f", 1) ]
               [ { Wmodule.fname = "f"; params = 2; locals = 1; body } ])
           (list_size (int_range 0 12) instr)
           (string_size (int_range 0 12))))
    (fun m -> modules_equal m (Wat.parse (Wat.print m)))

(* --- runtime profiles --- *)

let test_runtime_profiles () =
  Alcotest.(check bool) "wasmtime ~30% slower than wavm" true
    (let ratio =
       Runtime.slowdown_vs_native Runtime.wasmtime /. Runtime.slowdown_vs_native Runtime.wavm
     in
     ratio > 1.25 && ratio < 1.35);
  Alcotest.(check bool) "wavm compiles slower" true
    (Sim.Units.( > ) Runtime.wavm.Runtime.compile_per_instr
       Runtime.wasmtime.Runtime.compile_per_instr)

let test_runtime_run_charges_time () =
  let clock = Sim.Clock.create () in
  let loaded = Runtime.load Runtime.wasmtime ~clock Builder.sum_to_n in
  let after_load = Sim.Clock.now clock in
  Alcotest.(check bool) "load charged" true (Sim.Units.( > ) after_load Sim.Units.zero);
  let inst = Runtime.instantiate loaded ~clock ~system:Wasi.null_system in
  let result = Runtime.run loaded ~clock ~instance:inst "sum" [| 1000L |] in
  Alcotest.(check int64) "computed" 500500L result;
  Alcotest.(check bool) "execution charged" true
    (Sim.Units.( > ) (Sim.Clock.now clock) after_load)

let test_instruction_counting () =
  let inst = Interp.instantiate Builder.sum_to_n in
  ignore (Interp.call inst "sum" [| 10L |]);
  let ten = Interp.executed inst in
  ignore (Interp.call inst "sum" [| 20L |]);
  let twenty = Interp.executed inst - ten in
  Alcotest.(check bool) "count scales with work" true (twenty > ten)

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "division" `Quick test_division_semantics;
    Alcotest.test_case "locals and globals" `Quick test_locals_and_globals;
    Alcotest.test_case "loop (sum)" `Quick test_control_flow_loop;
    Alcotest.test_case "recursion (fib)" `Quick test_recursion;
    Alcotest.test_case "branch depths" `Quick test_branching_depths;
    Alcotest.test_case "select/eqz" `Quick test_select_eqz;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "memory bounds trap" `Quick test_memory_bounds_trap;
    Alcotest.test_case "memory grow" `Quick test_memory_grow;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "unreachable traps" `Quick test_unreachable;
    Alcotest.test_case "validator errors" `Quick test_validate_errors;
    Alcotest.test_case "host imports" `Quick test_host_imports;
    Alcotest.test_case "data initialisers" `Quick test_data_initialisers;
    Alcotest.test_case "aot matches interp kernels" `Quick test_aot_matches_interp_kernels;
    Alcotest.test_case "aot bubble sort" `Quick test_aot_bubble_sort_really_sorts;
    Alcotest.test_case "aot image passes scanner" `Quick test_aot_image_is_clean;
    QCheck_alcotest.to_alcotest aot_equivalence_property;
    Alcotest.test_case "wasi fd_write" `Quick test_wasi_fd_write;
    Alcotest.test_case "wasi clock" `Quick test_wasi_clock;
    Alcotest.test_case "wasi buffer interfaces" `Quick test_wasi_buffer_interfaces;
    Alcotest.test_case "encode roundtrip kernels" `Quick test_encode_roundtrip_kernels;
    Alcotest.test_case "decoded module runs" `Quick test_encode_decoded_still_runs;
    Alcotest.test_case "encode rejects garbage" `Quick test_encode_rejects_garbage;
    Alcotest.test_case "encode negative consts" `Quick test_encode_negative_consts;
    QCheck_alcotest.to_alcotest sleb_roundtrip_property;
    QCheck_alcotest.to_alcotest encode_roundtrip_property;
    Alcotest.test_case "wat roundtrip kernels" `Quick test_wat_roundtrip_kernels;
    Alcotest.test_case "wat hand-written module" `Quick test_wat_hand_written;
    Alcotest.test_case "wat errors" `Quick test_wat_errors;
    QCheck_alcotest.to_alcotest wat_roundtrip_property;
    Alcotest.test_case "runtime profiles" `Quick test_runtime_profiles;
    Alcotest.test_case "runtime charges virtual time" `Quick test_runtime_run_charges_time;
    Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
    Alcotest.test_case "aot: sum_to_n at n = 1e5 allocates < 1000 minor words" `Quick
      test_aot_sum_allocation;
    Alcotest.test_case "aot: every binop agrees on edge operands" `Quick test_aot_binop_edges;
  ]
